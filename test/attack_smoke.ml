(* The attack-universes smoke test: the built-in workloads plus a tiny
   generated population attacked under all three universes (mem,
   cond-flip, insn-skip) next to the DME baseline, checking

   - the stable attack report is byte-identical for --jobs 1 vs 4,
   - the attack.* counters reconcile exactly with each universe's
     summary totals (the detection deltas are counter-asserted),
   - branch faults change committed traces and memory campaigns stay
     free of benign false positives,
   - DME holdout pairs never diverge and price the ~2x replica overhead,
   - the N-gram baseline's rows are identical for --jobs 1 vs 4.

   Runs under test/smoke_timeout.sh via the @attack-smoke alias. *)

module H = Ipds_harness
module Pool = Ipds_parallel.Pool
module R = Ipds_obs.Registry
module J = Ipds_obs.Json

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "ATTACK SMOKE FAIL: %s\n%!" msg;
      exit 1)
    fmt

let counter name = R.counter_value (R.counter name)

(* per-universe campaigns with the obs counters read across each run:
   the summary totals must explain the counter movement exactly *)
let counter_reconciliation () =
  List.iter
    (fun u ->
      let name = H.Attack_experiment.universe_name u in
      let before =
        (counter "attack.injected", counter "attack.cf_changed",
         counter "attack.detected")
      in
      let s =
        (List.hd (H.Sweep.run ~attacks:3 ~seed:5 [ H.Sweep.universe u ]))
          .H.Sweep.summary
      in
      let total f =
        List.fold_left (fun acc r -> acc + f r) 0 s.H.Attack_experiment.rows
      in
      let injected = total (fun r -> r.H.Attack_experiment.attacks) in
      let cf = total (fun r -> r.H.Attack_experiment.cf_changed) in
      let detected = total (fun r -> r.H.Attack_experiment.detected) in
      let b_inj, b_cf, b_det = before in
      if counter "attack.injected" - b_inj <> injected then
        fail "%s: attack.injected moved %d, summary says %d" name
          (counter "attack.injected" - b_inj)
          injected;
      if counter "attack.cf_changed" - b_cf <> cf then
        fail "%s: attack.cf_changed moved %d, summary says %d" name
          (counter "attack.cf_changed" - b_cf)
          cf;
      if counter "attack.detected" - b_det <> detected then
        fail "%s: attack.detected moved %d, summary says %d" name
          (counter "attack.detected" - b_det)
          detected;
      if injected = 0 then fail "%s: no attacks injected" name;
      if detected > cf then
        fail "%s: %d detected but only %d control-flow changes" name detected cf;
      (* a committed flip or skip always moves the branch-trace digest *)
      match u with
      | `Cond_flip | `Insn_skip ->
          if cf <> injected then
            fail "%s: %d/%d branch faults changed the committed trace" name cf
              injected
      | `Mem -> ())
    [ `Mem; `Cond_flip; `Insn_skip ]

(* Baseline_experiment's campaigns each draw from one (seed, name)-salted
   RNG, so fanning workloads out across domains must not move a row. *)
let baseline_jobs () =
  let rows jobs =
    Pool.with_opt ~jobs (fun pool ->
        H.Baseline_experiment.run_all ~attacks:2 ~train_runs:3 ~holdout_runs:3
          ?pool ())
  in
  if rows 1 <> rows 4 then
    fail "baseline rows differ between --jobs 1 and --jobs 4"

let () =
  counter_reconciliation ();
  baseline_jobs ();
  let config =
    {
      H.Attack_bench.default_config with
      attacks = 4;
      pop_members = 4;
      pop_attacks = 3;
      dme_attacks = 4;
      dme_holdout = 3;
    }
  in
  let run jobs =
    Pool.with_opt ~jobs (fun pool -> H.Attack_bench.run ~config ?pool ())
  in
  let r1 = try run 1 with H.Attack_experiment.False_positive msg ->
    fail "benign false positive: %s" msg
  in
  let r4 = run 4 in
  let stable r = J.to_string (H.Attack_bench.stable_json r) in
  if not (String.equal (stable r1) (stable r4)) then
    fail "stable attack report differs between --jobs 1 and --jobs 4";
  if r1.H.Attack_bench.pop_distinct <> config.H.Attack_bench.pop_members then
    fail "generated population has %d distinct members out of %d"
      r1.H.Attack_bench.pop_distinct config.H.Attack_bench.pop_members;
  List.iter
    (fun (r : Ipds_harness.Dme_experiment.row) ->
      let open Ipds_harness.Dme_experiment in
      if r.benign_diffs <> 0 then
        fail "DME false positives on %s: %d" r.workload r.benign_diffs;
      if r.overhead < 1.9 || r.overhead > 2.1 then
        fail "DME overhead on %s out of range: %f" r.workload r.overhead)
    r1.H.Attack_bench.dme;
  if List.length r1.H.Attack_bench.workload_universes <> 3 then
    fail "expected 3 workload universes";
  Printf.printf
    "attack smoke OK: 3 universes reconciled, stable report byte-identical \
     across jobs, %d generated members distinct, DME clean on %d workloads\n"
    r1.H.Attack_bench.pop_distinct
    (List.length r1.H.Attack_bench.dme)
