(** The §6 compile-time note ("up to a few seconds per benchmark"): wall
    clock of the full IPDS compile-side pipeline per server, and the
    trial-and-error cost of the collision-free hash search. *)

type row = {
  workload : string;
  seconds : float;
  hash_attempts : int;  (** candidates examined across all functions *)
}

val run : Ipds_workloads.Workloads.t -> row
(** Test seam: test_harness pins one workload's row. *)

val run_all : unit -> row list
val render : row list -> string

(** {2 Per-pass breakdown} *)

val with_passes : (unit -> 'a) -> 'a * Ipds_pass.Pass.report_row list
(** [f ()] plus the delta of every pipeline pass across it, in pipeline
    order — the per-pass breakdown the bench [compile-time] target
    reports over {!run_all} (rendered by
    {!Ipds_pass.Pass.render_report}) and {!Precision_experiment} over
    each campaign. *)

val to_json : row list -> Ipds_pass.Pass.report_row list -> Ipds_obs.Json.t
(** [{"per_workload":[…], "passes":[{name, scope, units,
    wall_seconds_unstable}…]}]. *)
