(** The §6 compile-time note ("up to a few seconds per benchmark"): wall
    clock of the full IPDS compile-side pipeline per server, and the
    trial-and-error cost of the collision-free hash search. *)

type row = {
  workload : string;
  seconds : float;
  hash_attempts : int;  (** candidates examined across all functions *)
}

val run : Ipds_workloads.Workloads.t -> row
val run_all : unit -> row list
val render : row list -> string

(** {2 Per-pass breakdown} *)

type pass_row = {
  pass : string;  (** stable pipeline name ({!Ipds_pass.Pass}) *)
  scope : string;  (** ["program"] or ["function"] *)
  units : int;  (** stable: units processed (fixed by the build set) *)
  seconds : float;  (** unstable: accumulated wall-clock *)
}

val with_passes : (unit -> 'a) -> 'a * pass_row list
(** [f ()] plus the delta of every pipeline pass across it, in pipeline
    order — the per-pass breakdown the bench [compile-time] target
    reports over {!run_all} and the [precision] target over each
    campaign. *)

val render_passes : pass_row list -> string
