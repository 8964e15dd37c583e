(** Feasible-path refinement: iterate correlation analysis and
    feasibility pruning to a fixpoint (the precision flywheel).

    Each round prunes branch directions no benign execution can commit —
    unanimous entry pins the tables already enforce, statically refuted
    directions, and range-flow forced branches — then re-analyzes on the
    pruned view, whose tighter point graph and reaching definitions can
    expose correlations the spurious paths hid.  Stops when a round
    prunes nothing new, or at the per-function iteration cap. *)

type stats = {
  iterations : int;  (** analysis runs, [>= 1] *)
  edges_pruned : int;  (** directions pruned by the final round *)
  total_directions : int;  (** [2 *] conditional branches *)
  correlations_before : int;  (** directed actions on the unpruned run *)
  correlations_after : int;  (** directed actions on the final run *)
  pruned : (int * bool) list;  (** the pruned directions, sorted *)
}

val analyze :
  ?options:Analysis.options ->
  Context.program_wide ->
  Ipds_mir.Func.t ->
  Analysis.result * stats
(** With precision [Off] in [options] this runs exactly one round and
    returns the same result as {!Analysis.analyze_func}.  Obs counters
    [refine.iterations], [refine.edges_pruned] and
    [refine.correlations_gained] accumulate across calls (stable:
    per-function totals are independent of scheduling). *)
