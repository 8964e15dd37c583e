(** Caller-visible write effects of defined functions.

    The paper converts each call site into pseudo-stores: none for
    functions proven to modify no non-local memory, one per dereferenced
    pointer argument when writes go only through parameters, and a
    wildcard store otherwise.  [compute] derives those summaries for MIR
    functions by a fixpoint over the call graph.

    In [`Faithful] mode a function that writes globals (or through
    non-parameter pointers) degrades to "writes anything", exactly as the
    paper prescribes to avoid full interprocedural analysis.  The
    [`Precise_globals] mode keeps the written-set explicit and is used by
    the ablation experiments. *)

module Int_set = Pt_set.Int_set

type t = {
  args : Int_set.t;  (** writes through these parameter positions *)
  globals : Ipds_mir.Var.Set.t;  (** direct or indirect global writes *)
  foreign_vars : Ipds_mir.Var.Set.t;
      (** non-global variables possibly written through pointers (their
          frames are unknown; callers intersect with their own scope) *)
  any : bool;  (** may write any address-taken or global memory *)
}

val writes_nothing : t
val is_pure : t -> bool
val pp : Format.formatter -> t -> unit

val fingerprint : Buffer.t -> t -> unit
(** Appends the canonical digest-stable rendering (variable ids, sorted)
    — part of the per-function content digest keying the incremental
    cache. *)

type mode =
  [ `Faithful
  | `Precise_globals
  ]

val of_extern : Ipds_mir.Extern.summary -> t

val compute : Ipds_mir.Program.t -> Points_to.t -> mode:mode -> string -> t
(** [compute p pt ~mode] returns a total summary lookup for every callee
    name (defined, declared extern, or unknown). *)
