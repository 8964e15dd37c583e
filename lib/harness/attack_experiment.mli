(** The Figure 7 experiment: detection rate under simulated attacks.

    Each server is attacked [attacks] times independently.  One attack:
    run the benign server under a seeded input script, pick a uniformly
    random dynamic step in the [20%, 100%) window of that run, a victim
    cell (restricted by the workload's vulnerability class) and a random
    replacement value, re-run the same inputs with the tamper injected,
    and compare.  Reported per server:

    - how many tamperings changed control flow (the branch trace or the
      termination state differs), and
    - how many IPDS detected (at least one alarm).

    The benign run doubles as the zero-false-positive check: an alarm
    there fails the experiment.

    {b Parallelism and determinism.}  Every attempt derives its RNG from
    [(seed, workload, attempt index)] (splittable seeding, not
    sequential draws from one state), so attempts are independent tasks;
    campaigns fan them out across an {!Ipds_parallel.Pool} and fold the
    outcomes in attempt order.  Results are bit-for-bit identical for
    any pool size, and without a pool (no domains spawned). *)

type row = {
  workload : string;
  attacks : int;  (** attacks with an actual injection *)
  cf_changed : int;
  detected : int;
}

type summary = {
  rows : row list;
  avg_cf_changed : float;  (** fraction, paper: 0.494 *)
  avg_detected : float;  (** fraction of all attacks, paper: 0.293 *)
  detected_given_cf : float;  (** paper: 0.593 *)
}

exception False_positive of string
(** Raised if a benign run raises an alarm, or an attacked run alarms
    without changing control flow — a soundness violation. *)

(** What one attack attempt came to. *)
type attempt_outcome =
  | Benign_alarm  (** the un-tampered run alarmed *)
  | Too_short  (** benign run too short to place an attack window *)
  | No_injection  (** the tamper changed nothing *)
  | Injected of { changed : bool; alarmed : bool }
      (** [changed]: control flow diverged from the benign run;
          [alarmed]: IPDS raised at least one alarm *)

val check_sound : name:string -> attempt_outcome -> unit
(** The zero-false-positive rule every campaign loop (this one,
    {!Baseline_experiment} and {!Dme_experiment}) applies to each
    evaluated attempt: raises {!False_positive}, labelled with [name],
    on [Benign_alarm] and on an alarmed injection whose control flow did
    not change. *)

type universe = [ `Mem | `Cond_flip | `Insn_skip ]
(** The attack universes.  [`Mem] is the paper's memory-tamper scenario
    (the workload's own vulnerability class picks the scope);
    [`Cond_flip] and [`Insn_skip] are the branch-fault models of the
    fault-attack literature, landing at branch commit. *)

type model = [ `Stack_overflow | `Arbitrary_write | `Cond_flip | `Insn_skip ]
(** What one attempt tampers with: a memory write of either
    vulnerability class, or a branch fault. *)

val models : (string * model) list
(** Every model under its one spelling — ["overflow"], ["arbitrary"],
    ["cond-flip"], ["insn-skip"] — which the [ipds attack --model] flag,
    the [attack.campaign] event and the {!Sweep} labels all read. *)

val universe_name : universe -> string
(** ["mem"], or the branch-fault model's own name — the CLI/bench
    spelling. *)

val universe_of_name : string -> universe option

val model_of_universe :
  ?workload:Ipds_workloads.Workloads.t -> universe -> model
(** The model a universe attacks with.  [`Mem] takes [workload]'s own
    vulnerability class, or arbitrary writes for a program without one
    (a generated population member). *)

(** {2 One attack attempt}

    The Figure 7 procedure every campaign runs — this module's, and the
    sequential ones of {!Baseline_experiment} and {!Dme_experiment}. *)

val run_config : input_seed:int -> Ipds_machine.Interp.config
(** The configuration every campaign run starts from: inputs from
    {!Ipds_machine.Input_script.random} at [input_seed], branch-trace
    recording off. *)

type attempt = {
  input_seed : int;  (** the inputs both passes ran on *)
  benign : Ipds_machine.Interp.outcome;
  attack : (Ipds_machine.Tamper.plan * Ipds_machine.Interp.outcome) option;
      (** the tamper plan and the attacked run; [None] when the benign
          run alarmed or was too short to place an attack window *)
}

val attempt :
  ?sink:(Ipds_machine.Event.t -> unit) ->
  system:Ipds_core.System.t ->
  model:model ->
  Ipds_mir.Program.t ->
  Random.State.t ->
  attempt
(** Run [program] benign on a seeded input script, then, unless that
    run alarmed or took at most two steps, strike at a random step in
    the [20%, 100%) window of it and rerun the same inputs tampered.
    Draws from the RNG, in order: the input seed, the step, the value
    (drawn for every model; branch faults ignore it) and the tamper
    seed.  Both passes run under a fresh checker from [system]; [sink]
    receives the attacked pass's committed events only. *)

val classify : attempt -> attempt_outcome

val campaign :
  ?system:Ipds_core.System.t ->
  ?pool:Ipds_parallel.Pool.t ->
  ?attacks:int ->
  ?seed:int ->
  model:model ->
  name:string ->
  Ipds_mir.Program.t ->
  row
(** Attack campaign against an explicit program under an explicit tamper
    model.  [name] labels the row and salts the attack RNG.  The
    program's IPDS tables come from [system] when given (e.g. loaded
    from an on-disk artifact, or built another way by a {!Sweep}
    variant) and from {!Ipds_core.System.cached_build} with the default
    analysis options otherwise. *)

val run :
  ?pool:Ipds_parallel.Pool.t ->
  ?universe:universe ->
  ?attacks:int ->
  ?seed:int ->
  Ipds_workloads.Workloads.t ->
  row
(** One workload's campaign: its default build from
    {!Ipds_workloads.Workloads.system} — two-tier cached, so a warm
    process skips both the MiniC compile and the analysis — attacked in
    [universe] (default [`Mem]).  Every workload at once, or other
    builds and attackers, go through {!Sweep}. *)

val summarize : row list -> summary
val summary_json : summary -> Ipds_obs.Json.t
(** [{"rows":[{workload, attacks, cf_changed, detected}…],
    "avg_cf_changed", "avg_detected", "detected_given_cf"}] — the shape
    of every report that carries a summary. *)

val render : summary -> string
(** One row per workload plus an AVERAGE row ("n/a" for an empty
    summary). *)
