(** Feasible-path refinement off and on ({!Sweep.precision}): one
    Figure 7 campaign each, the per-workload detection lift, what the
    refinement did (the [refine.*] counter deltas and the per-function
    {!Ipds_correlation.Refine.stats}) and what it cost (the per-pass
    deltas of each campaign's builds).  The off/on comparison a change
    to {!Ipds_correlation.Refine} is judged by. *)

type lift = {
  workload : string;
  attacks : int;  (** injected in the off campaign *)
  detected_off : int;
  detected_on : int;
}

type result = {
  attacks : int;  (** requested per workload *)
  seed : int;
  off : Attack_experiment.summary;
  on : Attack_experiment.summary;
  lift : lift list;  (** one per workload, in workload order *)
  refine : (string * int) list;
      (** [refine.iterations], [refine.edges_pruned] and
          [refine.correlations_gained], moved by the on campaign *)
  functions : (string * string * Ipds_correlation.Refine.stats) list;
      (** workload, function and stats of every function the on build
          refined *)
  pass_cost_off : Ipds_pass.Pass.report_row list;
      (** the passes the off campaign's builds moved; empty when earlier
          work in the process already built them *)
  pass_cost_on : Ipds_pass.Pass.report_row list;
}

val run :
  ?attacks:int -> ?seed:int -> ?pool:Ipds_parallel.Pool.t -> unit -> result
(** [attacks] defaults to 100, [seed] to 2006.  Identical for every pool
    size, apart from the wall seconds of the pass costs. *)

val render : result -> string
(** The lift table, the averages, the refine counters, the per-pass cost
    of the precision build and the histogram of iterations to
    fixpoint. *)

val stable_json : result -> Ipds_obs.Json.t
(** Test seam: the bench-stable check compares the stable object alone.
    Everything but the pass costs: identical for every pool size. *)

val to_json : result -> Ipds_obs.Json.t
(** The [BENCH_precision.json] document: {!stable_json} as ["stable"],
    and the pass costs, which carry wall seconds, as
    ["timing_unstable"]. *)
