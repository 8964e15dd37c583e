(** The Figure 7 experiment: detection rate under simulated attacks.

    Each server is attacked [attacks] times independently.  One attack:
    run the benign server under a seeded input script, pick a uniformly
    random dynamic step and victim cell (restricted by the workload's
    vulnerability class) and a random replacement value, re-run the same
    inputs with the tamper injected, and compare.  Reported per server:

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
    any [jobs] value, including [~jobs:1] (no domains spawned). *)

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

val universe_name : universe -> string
(** ["mem"], ["cond-flip"], ["insn-skip"] — the CLI/bench spelling. *)

val universe_of_name : string -> universe option

val campaign :
  ?options:Ipds_correlation.Analysis.options ->
  ?system:Ipds_core.System.t ->
  ?pool:Ipds_parallel.Pool.t ->
  ?attacks:int ->
  ?seed:int ->
  model:[ `Stack_overflow | `Arbitrary_write | `Cond_flip | `Insn_skip ] ->
  name:string ->
  Ipds_mir.Program.t ->
  row
(** Attack campaign against an explicit program under an explicit tamper
    model.  [name] labels the row and salts the attack RNG.  The
    program's IPDS tables come from [system] when given (e.g. loaded
    from an on-disk artifact) and {!Ipds_core.System.cached_build}
    otherwise. *)

val run :
  ?options:Ipds_correlation.Analysis.options ->
  ?promote:bool ->
  ?pool:Ipds_parallel.Pool.t ->
  ?prepare:(Ipds_workloads.Workloads.t -> Ipds_mir.Program.t) ->
  ?universe:universe ->
  ?attacks:int ->
  ?seed:int ->
  Ipds_workloads.Workloads.t ->
  row
(** By default the program and tables come from
    {!Ipds_workloads.Workloads.system} — two-tier cached, so a warm
    process skips both the MiniC compile and the analysis.  [promote]
    (default true) selects register promotion on that path.  [prepare]
    overrides the compilation pipeline entirely (the tables then come
    from {!Ipds_core.System.cached_build} and [promote] is ignored). *)

val run_all :
  ?options:Ipds_correlation.Analysis.options ->
  ?promote:bool ->
  ?prepare:(Ipds_workloads.Workloads.t -> Ipds_mir.Program.t) ->
  ?universe:universe ->
  ?attacks:int ->
  ?seed:int ->
  ?jobs:int ->
  ?pool:Ipds_parallel.Pool.t ->
  unit ->
  summary
(** Fans the ten workloads out across domains; each workload's attack
    attempts fan out in turn (the waiting parent helps, see
    {!Ipds_parallel.Pool}).  [pool] reuses a caller's pool; otherwise a
    pool of [jobs] (default {!Ipds_parallel.Pool.default_jobs}) is
    created for the call.  [~jobs:1] is strictly sequential. *)

val summarize : row list -> summary
val render : summary -> string
