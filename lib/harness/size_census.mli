(** The Figure 8 experiment: average per-function BSV/BCV/BAT sizes in
    bits (paper averages: 34 / 17 / 393). *)

type row = {
  workload : string;
  functions : int;
  avg_bsv_bits : float;
  avg_bcv_bits : float;
  avg_bat_bits : float;
}

val run : Ipds_workloads.Workloads.t -> row
(** Test seam: test_harness pins one workload's row. *)

val run_all : unit -> row list
val render : row list -> string
val to_json : row list -> Ipds_obs.Json.t
