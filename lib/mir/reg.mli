(** Virtual registers.

    Registers are unbounded, function-local pseudo-registers, as produced by
    a compiler middle-end before register allocation.  The paper's analysis
    runs at this level (SUIF IR); register identity is what the correlation
    analysis traces through affine chains. *)

type t

val make : int -> t
(** [make i] is the register numbered [i].  Raises [Invalid_argument] if
    [i < 0]. *)

val index : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
