(** Context-switch cost study (paper §5.4): the tables and vectors must be
    saved and restored when a protected process is switched; the design
    swaps the ~1K-bit top of stack synchronously and streams the rest in
    parallel with the new process.  This experiment sweeps the switch
    period and reports the resulting overhead on top of plain IPDS. *)

type row = {
  period_cycles : int;
  switches : int;
  ipds_cycles : float;  (** with context switches *)
  plain_ipds_cycles : float;  (** no context switches *)
  overhead : float;  (** ipds_cycles / plain_ipds_cycles *)
}

val run : Ipds_workloads.Workloads.t -> row list
(** Periods of 2k, 5k, 10k and 25k cycles (a real OS quantum at 1 GHz
    is on the order of a million cycles), over 40 benign runs seeded
    from 42. *)

val render : row list -> string

val to_json : row list -> Ipds_obs.Json.t
(** Period, switches and overhead of each row. *)
