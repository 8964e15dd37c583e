(** One Figure 7 campaign per configuration: the harness's one campaign
    driver.  Every comparison the evaluation draws across builds or
    attackers is a list of variants over it, and so is every plain
    campaign over the built-in workloads ({!universe}).

    - {!universe}: the default build attacked in one attack universe
      (Figure 7 is [universe `Mem]);
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
(** One row per variant, in order.  Workloads fan out over [pool] (none:
    sequential); rows are identical for every pool size. *)

val universe : Attack_experiment.universe -> variant
(** Labelled {!Attack_experiment.universe_name}: each workload's default
    build ({!Ipds_workloads.Workloads.system}) attacked with
    {!Attack_experiment.model_of_universe}.  [universe `Mem] is the
    Figure 7 campaign. *)

val ablation : variant list
(** full, no-load-load, no-store-load, no-affine, precise-globals; all
    attacked in the workload's own vulnerability class. *)

val opt_levels : variant list
(** O0 (everything memory-resident), O1 (register promotion, the
    default elsewhere), O2 (constant/copy propagation and dead-code
    elimination, then promotion).  O0 and O1 come from
    {!Ipds_workloads.Workloads.system}; O2 is built afresh on every
    {!run}, outside that memo. *)

val models : variant list
(** The memory-write models of {!Attack_experiment.models} (overflow and
    arbitrary write), both on the default build. *)

val precision : variant list
(** [[off; on]]: the default build, then the same with feasible-path
    refinement ({!Ipds_correlation.Analysis.precision_on}). *)

val render : row list -> string
(** variant | cf-changed | detected | detected|cf | checked/total | avg
    BAT bits.  A variant without samples renders "n/a". *)

val to_json : row list -> Ipds_obs.Json.t
(** One object per row: variant, summary
    ({!Attack_experiment.summary_json}), checked/total branches, avg BAT
    bits ([null] for none). *)
