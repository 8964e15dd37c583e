(** Collision-free branch-PC hashing (paper §5.2).

    The tables are indexed by hashed branch addresses.  To avoid storing
    tags, the compiler searches a parameterisable shift-XOR hash family
    for parameters that map the function's branch PCs into the hash space
    without collision, growing the space when the search fails.  The same
    parameters are shipped to the runtime in the function information
    table.

    The search checks each candidate against one scratch table made
    once per call: open addressing over at least twice as many slots as
    PCs, with a generation stamp per slot, so a candidate allocates
    nothing and the scratch stays bounded by the branch count whatever
    the space size. *)

type params = private {
  shift1 : int;  (** right-shift feedback *)
  shift2 : int;  (** left-shift feedback *)
  space_bits : int;  (** hash space is [2^space_bits] slots *)
}

val make : shift1:int -> shift2:int -> space_bits:int -> params
(** For reloading parameters shipped in a binary image; raises
    [Invalid_argument] on nonsensical values. *)

val space : params -> int
val apply : params -> int -> int
(** [apply p pc] ∈ [0, space p). *)

val find : int list -> params
(** Collision-free parameters for the given branch PCs: the first
    candidate, in the order space size, then [shift1], then [shift2]
    (each shift from 1 to 12), that maps no two PCs to one slot.  The
    space starts at the smallest power of two holding every PC and grows
    until the search succeeds; it never needs to exceed a few times the
    branch count in practice.  Raises [Invalid_argument] before the
    search when two PCs lie in one 4-byte word (a repeated PC among
    them), which no candidate separates. *)

val attempts_for : int list -> int
(** The 1-based position of {!find}'s answer in that order: how many
    candidates the search examined — the paper's "trial-and-error" cost,
    reported by the compile-time experiment.  Raises [Invalid_argument]
    where {!find} does. *)

val ceil_log2 : int -> int
(** The least [k] with [2^k >= n] ([0] for [n <= 1]). *)

val pp : Format.formatter -> params -> unit
