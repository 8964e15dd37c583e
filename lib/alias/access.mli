(** Classification of the memory a load, store or call may touch. *)

type target =
  | No_target
      (** dereference of a provably non-pointer value: the machine faults,
          nothing is read or written *)
  | Exact of Cell.t  (** exactly this cell *)
  | Within of Ipds_mir.Var.Set.t  (** some cell of one of these variables *)

type t
(** Per-function access oracle. *)

val make :
  Ipds_mir.Program.t ->
  Points_to.t ->
  summaries:(string -> Summary.t) ->
  Ipds_mir.Func.t ->
  t

val addr_target : t -> Ipds_mir.Addr.t -> target
(** The cells an addressing mode may resolve to.  Constant array indices
    are wrapped into bounds with the same modulo rule the machine applies,
    so [Exact] answers agree with execution. *)

val may_defs : t -> Ipds_mir.Op.t -> target
(** The cells an instruction may write: stores via {!addr_target}, calls
    via callee summaries instantiated at this site, everything else
    [No_target]. *)

val may_touch : target -> Cell.t -> bool
(** Could the target include the given cell? *)

val wrap_index : Ipds_mir.Var.t -> int -> int
(** The in-bounds cell index an arbitrary integer index resolves to
    (Euclidean modulo of the variable size); shared with the machine. *)
