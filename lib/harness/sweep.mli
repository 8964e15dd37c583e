(** One Figure 7 campaign per configuration: every comparison the
    evaluation draws across builds or attackers is a list of variants
    over this one driver.

    - {!ablation}: which correlation families and precision knobs carry
      detection and table cost (§4: load–load vs store–load);
    - {!opt_levels}: the paper's note that "compiler optimizations can
      remove some correlations, reducing the detection rate";
    - {!models}: the §3 buffer-overflow and arbitrary-write attackers;
    - {!precision}: feasible-path refinement off and on.

    Each variant runs the full campaign of {!Attack_experiment.campaign}
    on every workload of {!Ipds_workloads.Workloads.all}, and its row adds
    the static census of the tables it checked against. *)

type variant = {
  label : string;
  system : Ipds_workloads.Workloads.t -> Ipds_core.System.t;
      (** how each workload is built *)
  model : Ipds_workloads.Workloads.t -> Attack_experiment.model;
      (** how each workload is attacked *)
}

type row = {
  label : string;
  summary : Attack_experiment.summary;  (** one campaign row per workload *)
  checked_branches : int;  (** summed over the workloads *)
  total_branches : int;
  avg_bat_bits : float option;
      (** mean of the per-server averages; [None] for no servers *)
}

val run :
  ?attacks:int -> ?seed:int -> ?pool:Ipds_parallel.Pool.t -> variant list ->
  row list
(** One row per variant, in order.  Workloads fan out over [pool]; rows
    are identical for every job count. *)

val ablation : variant list
(** full, no-load-load, no-store-load, no-affine, precise-globals; all
    attacked in the workload's own vulnerability class. *)

val opt_levels : variant list
(** O0 (everything memory-resident), O1 (register promotion, the
    default elsewhere), O2 (constant/copy propagation and dead-code
    elimination, then promotion). *)

val models : variant list
(** overflow and arbitrary write, both on the default build. *)

val precision : variant list
(** [[off; on]]: the default build, then the same with feasible-path
    refinement ({!Ipds_correlation.Analysis.precision_on}). *)

val render : row list -> string
(** variant | cf-changed | detected | detected|cf | checked/total | avg
    BAT bits.  A variant without samples renders "n/a". *)
