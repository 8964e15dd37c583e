(** Control-flow graph view of a {!Ipds_mir.Func.t}: block-level successor
    and predecessor maps plus traversal orders. *)

type t

val make : Ipds_mir.Func.t -> t
val func : t -> Ipds_mir.Func.t
val n_blocks : t -> int
val succs : t -> int -> int list
val preds : t -> int -> int list

val reverse_postorder : t -> int array
(** Reachable blocks only, entry first. *)

val reachable : t -> bool array
(** Per-block reachability from the entry block. *)
