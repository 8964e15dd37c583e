(** Forward range flow over registers, on the generic dataflow
    framework: interval/predicate facts propagate along CFG edges,
    refined by the branch condition on each outgoing edge
    ([?edge] hook) and widened on loops ([?widen] hook).

    The facts are sound for {e every} execution — including tampered
    ones, because tampering mutates memory and memory enters a register
    only through [Load], which this analysis treats as unknown.  A
    branch direction reported by {!infeasible_directions} is therefore
    genuinely impossible and safe for {!Ipds_cfg.Feasibility.prune}. *)

type t

val analyze : ?feas:Ipds_cfg.Feasibility.t -> Ipds_mir.Func.t -> t
(** Solve over the feasibility-pruned view when [feas] is given (more
    pruning can expose more forced branches), else over the raw CFG. *)

val infeasible_directions : t -> (int * bool) list
(** Branch directions [(term_iid, taken)] no execution can take:
    the direction's exact inverse image meets the incoming facts at
    [Never].  Directions already pruned in [feas] are not re-reported;
    branches whose two targets coincide are never reported.  Sorted. *)
