(** Trace-driven superscalar timing model (the SimpleScalar stand-in).

    Consumes the interpreter's event stream and charges cycles for
    commit-width-limited throughput, instruction/data cache misses (with
    an out-of-order overlap discount), branch mispredictions, and — when
    an IPDS system is attached — request-queue stalls from the IPDS
    engine.  Attach via {!observer}:

    {[
      let cpu = Cpu.create ~config ~system:(Some sys) program in
      let _ = Interp.run program
        { config with sink = Some (Cpu.observer cpu) } in
      let r = Cpu.finish cpu in ...
    ]} *)

type t

val create :
  ?config:Config.t ->
  ?ctx_switch_period:float ->
  system:Ipds_core.System.t option ->
  unit ->
  t
(** [ctx_switch_period] — if set, a protected-process context switch is
    charged every that-many cycles (the §5.4 save/restore model). *)

val observer : t -> Ipds_machine.Event.t -> unit

type ipds_stats = {
  verifies : int;
  updates : int;
  stall_cycles : float;
  spills : int;
  fills : int;
  avg_detection_latency : float;
  max_queue : int;
  alarms : int;
  context_switches : int;
  ctx_stall_cycles : float;
}

type report = {
  cycles : float;
  instructions : int;
  ipc : float;
  l1i_misses : int;
  l1d_misses : int;
  l2_misses : int;
  branches : int;
  mispredicts : int;
  ipds : ipds_stats option;
}

val finish : t -> report
val pp_report : Format.formatter -> report -> unit
