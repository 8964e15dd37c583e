(** Extract the "system call trace" of a run: the sequence of external
    (runtime/library) calls the program makes, terminated by how the run
    ended.  This is the granularity classic host-based anomaly detectors
    monitor — far coarser than IPDS's per-branch view. *)

val recorder :
  Ipds_mir.Program.t ->
  (Ipds_machine.Event.t -> unit) * (Ipds_machine.Interp.outcome -> string list)
(** [recorder program] is a fresh [(observe, trace)] pair: install
    [observe] as the sink of one run of [program], then [trace
    outcome] is that run's extern-call name sequence plus a terminal
    symbol for how it stopped ("exit", "halt", "fault", "steps",
    "trap"). *)

val collect :
  Ipds_mir.Program.t -> config:Ipds_machine.Interp.config -> string list
(** Runs the program under a fresh {!recorder} (any sink already in
    [config] is chained after it) and returns the run's trace. *)
