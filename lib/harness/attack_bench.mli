(** The attack-universes benchmark: one report over every attack
    scenario the harness knows.

    Three campaign families share one seeded configuration:

    - {b workload universes} — every built-in server attacked under
      each requested {!Attack_experiment.universe} (the paper's memory
      tampering plus the [`Cond_flip]/[`Insn_skip] branch faults);
    - {b generated population} — a seeded structurally-random MiniC
      population ({!Ipds_gen.Gen.population}), each member attacked
      under each universe (the memory universe uses arbitrary writes:
      generated servers carry no designated vulnerability class);
    - {b DME} — the layout-diversity baseline ({!Dme_experiment}),
      coverage and overhead next to IPDS.

    Everything in {!stable_json} is deterministic: campaigns use
    splittable or name-salted seeding, the generator is pure in
    [(seed, index)], and fan-out preserves fold order — so the stable
    report is byte-identical for any job count.  Wall-clock throughput
    is the caller's to measure and must be reported separately (the
    bench driver labels it unstable). *)

type config = {
  universes : Attack_experiment.universe list;
  attacks : int;  (** per built-in workload, per universe *)
  seed : int;
  pop_members : int;  (** generated-population size *)
  pop_attacks : int;  (** per generated member, per universe *)
  dme_attacks : int;
  dme_holdout : int;
}

val default_config : config
(** All three universes, 40 attacks/workload, seed 2006, 8 generated
    members at 6 attacks each, DME at 40 attacks / 12 holdout pairs. *)

type result = {
  config : config;
  workload_universes : (Attack_experiment.universe * Attack_experiment.summary) list;
  pop_distinct : int;  (** distinct sources in the generated population *)
  pop_universes : (Attack_experiment.universe * Attack_experiment.summary) list;
  dme : Dme_experiment.row list;
}

val run : ?config:config -> ?pool:Ipds_parallel.Pool.t -> unit -> result
(** Raises {!Attack_experiment.False_positive} if any benign run of any
    campaign raises an alarm. *)

val injected_total : result -> int
(** Total injected attacks across all campaigns — the denominator for
    throughput reporting. *)

val summary_json : Attack_experiment.summary -> Ipds_obs.Json.t
val stable_json : result -> Ipds_obs.Json.t
(** The deterministic report object (byte-identical across job counts). *)
