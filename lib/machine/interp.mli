(** The MIR interpreter — the role Bochs plays in the paper: run the
    program, optionally under IPDS checking, optionally under attack.

    The interpreter is deterministic given the input script and tamper
    plan, which is what makes "same run, with and without tampering"
    comparisons (Figure 7) and timing replays (Figure 9) possible. *)

type stop_reason =
  | Exited of Value.t
  | Halted
  | Fault of string
  | Out_of_steps
  | Trapped of Ipds_core.Checker.alarm
      (** stopped by the IPDS hardware trap (with [trap_on_alarm]) *)

type outcome = {
  reason : stop_reason;
  steps : int;
  branches : int;  (** committed conditional branches *)
  outputs : int list;  (** in emission order *)
  branch_trace : (int * bool) list;
      (** (pc, taken) per committed branch, if recording was on *)
  trace_digest : int;
      (** rolling hash of the full (pc, taken) sequence, always
          computed — lets {!control_flow_changed} work without
          [record_trace] *)
  alarms : Ipds_core.Checker.alarm list;
  injection : Tamper.injection option;
}

type config = {
  max_steps : int;
  inputs : Input_script.t;
  checker : Ipds_core.Checker.t option;
  trap_on_alarm : bool;
      (** abort execution at the first alarm, like the hardware (default
          false: record alarms and keep running, convenient for
          experiments) *)
  sink : (Event.t -> unit) option;
      (** the run's one event tap (timing model, syscall recorder,
          trace log, remote checker).  Events arrive in commit order:
          each is emitted only after the action it describes has taken
          effect (a call that faults pushing its frame is never
          emitted), so a checker replaying the sink stream — locally via
          {!Replay.feed_all} or remotely over the verdict server — reaches
          exactly the same verdicts as an inline [checker].  The initial
          activation of [main] arrives as a call event. *)
  record_trace : bool;
  tamper : Tamper.plan option;
}

val max_call_depth : int
(** Activations a run may hold at once: the call that would push one
    more faults with "call stack overflow", so no trace nests deeper.
    The verdict server refuses a [Branch_events] batch past the same
    depth. *)

val default_config : config
(** 500k steps, constant-0 inputs, no checker/sink/tamper, trace
    recording on. *)

val run : Ipds_mir.Program.t -> config -> outcome

val control_flow_changed : outcome -> outcome -> bool
(** Do two runs differ in their committed-branch traces (or stop
    reasons)?  Compared via [trace_digest], so it works whether or not
    the traces were recorded. *)
