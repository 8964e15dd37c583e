(** The Figure 9 experiment: execution time with IPDS normalized to the
    baseline without it (paper: 0.79% average degradation), plus the §6
    detection-latency measurement (paper: 11.7 cycles average). *)

type row = {
  workload : string;
  instructions : int;
  base_cycles : float;
  ipds_cycles : float;
  normalized : float;  (** ipds / base; 1.0 = no overhead *)
  avg_detection_latency : float;  (** cycles, over all verify requests *)
  spills : int;
  stall_cycles : float;
}

val measure :
  seed:int ->
  repeats:int ->
  Ipds_core.System.t ->
  Ipds_pipeline.Cpu.report * Ipds_pipeline.Cpu.report
(** [(base, ipds)]: the timing model ({!Ipds_pipeline.Config.default})
    without and with the IPDS engine over the same [repeats] benign runs
    of the system's program, run [i] on inputs seeded [seed + i].  The
    [ipds perf] command is [~repeats:1]. *)

val run : ?seed:int -> ?repeats:int -> Ipds_workloads.Workloads.t -> row
(** Test seam: test_harness runs one workload's row.  {!measure} on the
    workload's default build, seed 42 by default; [repeats] runs of the benign
    driver are concatenated into one trace (default 5) to smooth the timing. *)

val run_all :
  ?seed:int -> ?repeats:int -> ?pool:Ipds_parallel.Pool.t -> unit -> row list
(** {!run} on every workload, fanned out over [pool] (none: sequential). *)

val render : row list -> string

val to_json : row list -> Ipds_obs.Json.t
(** Every field but [stall_cycles]. *)
