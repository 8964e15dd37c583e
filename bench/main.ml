(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6), plus the extension experiments built on them.

     dune exec bench/main.exe            -- everything (default sizes)
     dune exec bench/main.exe -- fig7    -- detection rates (Figure 7)
     dune exec bench/main.exe -- fig8    -- table sizes (Figure 8)
     dune exec bench/main.exe -- fig9    -- normalized performance (Figure 9)
                                            and detection latency (paper §6)
     dune exec bench/main.exe -- table1  -- simulated processor parameters
     dune exec bench/main.exe -- compile-time
     dune exec bench/main.exe -- ablation    -- correlation families on/off
     dune exec bench/main.exe -- opt-levels  -- O0 / promotion / scalar opts
     dune exec bench/main.exe -- models  -- overflow vs arbitrary-write attacker
     dune exec bench/main.exe -- precision -- Fig-7 lift from --precision on
     dune exec bench/main.exe -- baseline -- 3-gram syscall detector vs IPDS
     dune exec bench/main.exe -- ctx     -- context-switch save/restore cost
     dune exec bench/main.exe -- attacks -- attack universes (mem, cond-flip,
                                            insn-skip) over the workloads, a
                                            generated population, and the DME
                                            baseline; writes BENCH_attacks.json
     dune exec bench/main.exe -- smoke   -- tiny campaign + invariant checks

   ablation, opt-levels, models and precision are variant lists over one
   driver (Ipds_harness.Sweep): one Fig-7 campaign per variant.  The first
   three share one table and one JSON shape; precision adds its refine
   counters, per-function stats and per-pass cost.

   The verdict server and the flat checker are measured by perfbench, not
   here: python3 perfbench/run.py --workload serve-stream (or
   serve-session, or compile-population for the per-pass compile costs).

   Flags (defaults preserve the historical sizes):

     --attacks N   attacks per server for the campaign experiments
     --seed S      base PRNG seed (default 2006)
     --jobs N      worker domains (default: recommended cores - 1, or
                   IPDS_JOBS; --jobs 1 is strictly sequential and
                   bit-identical to any other job count)
     --json FILE   write a machine-readable report of everything that
                   ran (rates, sizes, slowdown, latency, wall-clock per
                   phase, artifact-cache counters) — e.g.
                   --json BENCH_$(date +%F).json
     --cache-dir D two-tier artifact cache: load prebuilt .ipds objects
                   from D (populating it on misses) instead of
                   recompiling and re-analyzing; defaults to
                   IPDS_CACHE_DIR when set
     --no-cache    ignore IPDS_CACHE_DIR and run everything in memory
     --events F    stream structured JSONL events (manifest first line)
                   to F; defaults to IPDS_EVENTS when set
     --universes L comma-separated attack universes for the attacks
                   target (default mem,cond-flip,insn-skip)
     --attacks-out F  attack-universes report file (the "stable" section
                   is byte-identical across --jobs; throughput is under
                   "throughput_unstable")
     --precision-out F  precision-lift report file

   The --json report embeds the run manifest plus two metric sections:
   "metrics" (stable counters/gauges/histograms — byte-identical across
   --jobs values) and "runtime_metrics" (pool utilisation and span
   timers, which legitimately vary). *)

module H = Ipds_harness
module W = Ipds_workloads.Workloads
module Pool = Ipds_parallel.Pool
module J = Ipds_obs.Json

let section title = Printf.printf "\n=== %s ===\n%!" title

(* ---------- experiment phases; each prints its table and returns the
   same numbers as JSON ---------- *)

let fig7 ~attacks ~seed ?pool () =
  section (Printf.sprintf "Figure 7: detection rate (%d attacks/server)" attacks);
  (* three independent campaigns: the first is the reported table, the
     spread across seeds quantifies sampling noise *)
  let seeds = if seed = 2006 then [ 2006; 7; 99 ] else [ seed; seed + 1; seed + 2 ] in
  let summaries =
    List.map (fun seed -> H.Attack_experiment.run_all ~attacks ~seed ?pool ()) seeds
  in
  let s = List.hd summaries in
  print_endline (H.Attack_experiment.render s);
  let series f = List.map f summaries in
  Printf.printf
    "across seeds: cf-changed %s, detected %s, detected|cf %s\n"
    (H.Stats.mean_sd (series (fun s -> s.H.Attack_experiment.avg_cf_changed)))
    (H.Stats.mean_sd (series (fun s -> s.H.Attack_experiment.avg_detected)))
    (H.Stats.mean_sd (series (fun s -> s.H.Attack_experiment.detected_given_cf)));
  print_endline
    "paper: 49.4% of tamperings change control flow; 29.3% detected overall; \
     59.3% of control-flow-changing detected";
  J.Obj
    (List.map2
       (fun seed s -> (Printf.sprintf "seed_%d" seed, H.Attack_bench.summary_json s))
       seeds summaries)

let fig8 () =
  section "Figure 8: average table sizes (bits)";
  let rows = H.Size_census.run_all () in
  print_endline (H.Size_census.render rows);
  print_endline "paper averages: BSV 34, BCV 17, BAT 393";
  J.List
    (List.map
       (fun (r : H.Size_census.row) ->
         J.Obj
           [
             ("workload", J.String r.workload);
             ("functions", J.Int r.functions);
             ("avg_bsv_bits", J.Float r.avg_bsv_bits);
             ("avg_bcv_bits", J.Float r.avg_bcv_bits);
             ("avg_bat_bits", J.Float r.avg_bat_bits);
           ])
       rows)

let perf_rows_json rows =
  J.List
    (List.map
       (fun (r : H.Perf_experiment.row) ->
         J.Obj
           [
             ("workload", J.String r.workload);
             ("instructions", J.Int r.instructions);
             ("base_cycles", J.Float r.base_cycles);
             ("ipds_cycles", J.Float r.ipds_cycles);
             ("normalized", J.Float r.normalized);
             ("avg_detection_latency", J.Float r.avg_detection_latency);
             ("spills", J.Int r.spills);
           ])
       rows)

let fig9 ?pool () =
  section "Figure 9: performance normalized to no-IPDS baseline";
  let rows = H.Perf_experiment.run_all ?pool () in
  print_endline (H.Perf_experiment.render rows);
  print_endline "paper: average degradation 0.79%";
  print_endline "paper: average detection latency 11.7 cycles";
  perf_rows_json rows

let table1 () =
  section "Table 1: simulated processor parameters";
  Format.printf "%a@." Ipds_pipeline.Config.pp Ipds_pipeline.Config.default;
  J.Null

let compile_time () =
  section "Compile time per benchmark (paper: up to a few seconds)";
  let rows, passes = H.Compile_time.(with_passes run_all) in
  print_endline (H.Compile_time.render rows);
  print_endline "Per-pass breakdown (pipeline order):";
  print_endline (H.Compile_time.render_passes passes);
  J.Obj
    [
      ( "per_workload",
        J.List
          (List.map
             (fun (r : H.Compile_time.row) ->
               J.Obj
                 [
                   ("workload", J.String r.workload);
                   ("seconds", J.Float r.seconds);
                   ("hash_attempts", J.Int r.hash_attempts);
                 ])
             rows) );
      (* pass names and unit counts are stable across --jobs; wall
         seconds are scheduling-dependent, hence the explicit suffix. *)
      ( "passes",
        J.List
          (List.map
             (fun (p : H.Compile_time.pass_row) ->
               J.Obj
                 [
                   ("name", J.String p.pass);
                   ("scope", J.String p.scope);
                   ("units", J.Int p.units);
                   ("wall_seconds_unstable", J.Float p.seconds);
                 ])
             passes) );
    ]

(* ---------- sweeps: one campaign per variant, one table, one JSON ---------- *)

let sweep_json rows =
  J.List
    (List.map
       (fun (r : H.Sweep.row) ->
         J.Obj
           [
             ("variant", J.String r.label);
             ("summary", H.Attack_bench.summary_json r.summary);
             ("checked_branches", J.Int r.checked_branches);
             ("total_branches", J.Int r.total_branches);
             ( "avg_bat_bits",
               Option.fold ~none:J.Null ~some:(fun b -> J.Float b) r.avg_bat_bits
             );
           ])
       rows)

let sweep ~title ?(per_variant = false) variants ~attacks ~seed ?pool () =
  section (Printf.sprintf "%s (%d attacks/server)" title attacks);
  let rows = H.Sweep.run ~attacks ~seed ?pool variants in
  print_endline (H.Sweep.render rows);
  if per_variant then
    List.iter
      (fun (r : H.Sweep.row) ->
        Printf.printf "\n-- %s --\n%s\n" r.label
          (H.Attack_experiment.render r.summary))
      rows;
  sweep_json rows

let baseline ~attacks ~seed ?pool () =
  section
    (Printf.sprintf
       "Baseline comparison: 3-gram syscall-trace detector vs IPDS (%d \
        attacks/server)"
       attacks);
  let rows = H.Baseline_experiment.run_all ~attacks ~seed ?pool () in
  print_endline (H.Baseline_experiment.render rows);
  J.List
    (List.map
       (fun (r : H.Baseline_experiment.row) ->
         J.Obj
           [
             ("workload", J.String r.workload);
             ("ngram_fp", J.Float r.ngram_fp);
             ("ngram_detected", J.Int r.ngram_detected);
             ("ipds_detected", J.Int r.ipds_detected);
             ("cf_changed", J.Int r.cf_changed);
             ("attacks", J.Int r.attacks);
           ])
       rows)

let ctx () =
  section "Context switches: save/restore cost vs switch period (sshd)";
  let rows = H.Ctx_experiment.run (W.find "sshd") in
  print_endline (H.Ctx_experiment.render rows);
  J.List
    (List.map
       (fun (r : H.Ctx_experiment.row) ->
         J.Obj
           [
             ("period_cycles", J.Int r.period_cycles);
             ("switches", J.Int r.switches);
             ("overhead", J.Float r.overhead);
           ])
       rows)

(* ---------- precision: Fig-7 lift from feasible-path refinement ---------- *)

(* The two variants of [Sweep.precision] — default options, then with the
   refine pass on — one campaign each, and report the per-workload
   detection delta plus what the refinement actually did (obs counters)
   and what it cost (per-pass deltas). *)
let precision ~attacks ~seed ?pool ~out () =
  section
    (Printf.sprintf "Feasible-path refinement: detection lift (%d attacks/server)"
       attacks);
  let off_variant, on_variant =
    match H.Sweep.precision with
    | [ off; on ] -> (off, on)
    | _ -> invalid_arg "Sweep.precision is not an off/on pair"
  in
  (* the campaign's summary, and only the passes it moved *)
  let campaign v =
    let rows, passes =
      H.Compile_time.with_passes (fun () ->
          H.Sweep.run ~attacks ~seed ?pool [ v ])
    in
    ( (List.hd rows).H.Sweep.summary,
      List.filter
        (fun (p : H.Compile_time.pass_row) -> p.units <> 0 || p.seconds >= 1e-9)
        passes )
  in
  let refine_names =
    [ "refine.iterations"; "refine.edges_pruned"; "refine.correlations_gained" ]
  in
  let refine_snapshot () =
    List.map
      (fun n -> (n, Ipds_obs.Registry.counter_value (Ipds_obs.Registry.counter n)))
      refine_names
  in
  let off, cost_off = campaign off_variant in
  let r0 = refine_snapshot () in
  let on, cost_on = campaign on_variant in
  let r1 = refine_snapshot () in
  let refine_counters =
    List.map2 (fun (n, v0) (_, v1) -> (n, v1 - v0)) r0 r1
  in
  let rows =
    List.map2
      (fun (o : H.Attack_experiment.row) (n : H.Attack_experiment.row) ->
        assert (String.equal o.workload n.workload);
        (o.workload, o.attacks, o.detected, n.detected))
      off.H.Attack_experiment.rows on.H.Attack_experiment.rows
  in
  let lifted =
    List.length (List.filter (fun (_, _, o, n) -> n > o) rows)
  in
  Printf.printf "%-12s %9s %9s %6s\n" "workload" "off" "on" "lift";
  List.iter
    (fun (w, attacks, o, n) ->
      Printf.printf "%-12s %5d/%-3d %5d/%-3d %+6d\n" w o attacks n attacks
        (n - o))
    rows;
  Printf.printf
    "detection lifted on %d/%d workloads; avg detected %.1f%% -> %.1f%%\n"
    lifted (List.length rows)
    (100. *. off.H.Attack_experiment.avg_detected)
    (100. *. on.H.Attack_experiment.avg_detected);
  List.iter (fun (n, v) -> Printf.printf "  %s: %d\n" n v) refine_counters;
  print_endline "per-pass cost of the precision build:";
  List.iter
    (fun (p : H.Compile_time.pass_row) ->
      Printf.printf "  %-24s %6d units  %8.3fs\n" p.pass p.units p.seconds)
    cost_on;
  (* per-function refinement stats: the systems are memoised, so this
     reuses the builds the on-campaign already did *)
  let fn_stats =
    List.concat_map
      (fun w ->
        let sys = on_variant.H.Sweep.system w in
        List.filter_map
          (fun (fname, (info : Ipds_core.System.func_info)) ->
            Option.map
              (fun s -> (w.W.name, fname, s))
              info.Ipds_core.System.refine)
          sys.Ipds_core.System.funcs)
      W.all
  in
  let hist =
    List.sort_uniq compare
      (List.map (fun (_, _, s) -> s.Ipds_correlation.Refine.iterations) fn_stats)
  in
  Printf.printf "iterations to fixpoint:%s\n"
    (String.concat ""
       (List.map
          (fun it ->
            let n =
              List.length
                (List.filter
                   (fun (_, _, s) ->
                     s.Ipds_correlation.Refine.iterations = it)
                   fn_stats)
            in
            Printf.sprintf "  %d iteration%s x %d functions"
              it (if it = 1 then "" else "s") n)
          hist));
  let pass_cost_json passes =
    J.List
      (List.map
         (fun (p : H.Compile_time.pass_row) ->
           J.Obj
             [
               ("pass", J.String p.pass);
               ("units", J.Int p.units);
               ("wall_seconds", J.Float p.seconds);
             ])
         passes)
  in
  let data =
    J.Obj
      [
        ("attacks", J.Int attacks);
        ("seed", J.Int seed);
        ("off", H.Attack_bench.summary_json off);
        ("on", H.Attack_bench.summary_json on);
        ( "lift",
          J.List
            (List.map
               (fun (w, attacks, o, n) ->
                 J.Obj
                   [
                     ("workload", J.String w);
                     ("attacks", J.Int attacks);
                     ("detected_off", J.Int o);
                     ("detected_on", J.Int n);
                     ("lift", J.Int (n - o));
                   ])
               rows) );
        ("workloads_lifted", J.Int lifted);
        ("refine", J.Obj (List.map (fun (n, v) -> (n, J.Int v)) refine_counters));
        ( "functions",
          J.List
            (List.map
               (fun (w, fname, (s : Ipds_correlation.Refine.stats)) ->
                 J.Obj
                   [
                     ("workload", J.String w);
                     ("function", J.String fname);
                     ("iterations", J.Int s.Ipds_correlation.Refine.iterations);
                     ("edges_pruned", J.Int s.Ipds_correlation.Refine.edges_pruned);
                     ( "total_directions",
                       J.Int s.Ipds_correlation.Refine.total_directions );
                     ( "correlations_before",
                       J.Int s.Ipds_correlation.Refine.correlations_before );
                     ( "correlations_after",
                       J.Int s.Ipds_correlation.Refine.correlations_after );
                   ])
               fn_stats) );
        ("pass_cost_off", pass_cost_json cost_off);
        ("pass_cost_on", pass_cost_json cost_on);
      ]
  in
  (match out with
  | None -> ()
  | Some path ->
      J.write_file ~indent:2 path data;
      Printf.printf "wrote %s\n" path);
  data

(* ---------- attacks: every universe, generated population, DME ---------- *)

let attacks_bench ~attacks ~seed ~universes ?pool ~out () =
  section
    (Printf.sprintf "Attack universes (%d attacks/server, universes: %s)"
       attacks
       (String.concat "," (List.map H.Attack_experiment.universe_name universes)));
  let config =
    {
      H.Attack_bench.default_config with
      universes;
      attacks;
      seed;
      dme_attacks = attacks;
    }
  in
  let t0 = Unix.gettimeofday () in
  let r = H.Attack_bench.run ~config ?pool () in
  let dt = Unix.gettimeofday () -. t0 in
  List.iter
    (fun (u, s) ->
      Printf.printf "\n-- workloads, universe %s --\n"
        (H.Attack_experiment.universe_name u);
      print_endline (H.Attack_experiment.render s))
    r.H.Attack_bench.workload_universes;
  Printf.printf "\n-- generated population: %d members (%d distinct), seed %d --\n"
    config.H.Attack_bench.pop_members r.H.Attack_bench.pop_distinct seed;
  List.iter
    (fun (u, s) ->
      Printf.printf "\n-- population, universe %s --\n"
        (H.Attack_experiment.universe_name u);
      print_endline (H.Attack_experiment.render s))
    r.H.Attack_bench.pop_universes;
  Printf.printf "\n-- DME baseline (%d attacks/server, %d holdout pairs) --\n"
    config.H.Attack_bench.dme_attacks config.H.Attack_bench.dme_holdout;
  print_endline (H.Dme_experiment.render r.H.Attack_bench.dme);
  let injected = H.Attack_bench.injected_total r in
  Printf.printf "campaign throughput: %d injected attacks in %.2fs (%.1f/s)\n"
    injected dt
    (float_of_int injected /. Float.max dt 1e-9);
  let data =
    J.Obj
      [
        (* byte-identical across --jobs values *)
        ("stable", H.Attack_bench.stable_json r);
        ( "throughput_unstable",
          J.Obj
            [
              ("wall_seconds", J.Float dt);
              ("injected_attacks", J.Int injected);
              ( "attacks_per_second",
                J.Float (float_of_int injected /. Float.max dt 1e-9) );
            ] );
      ]
  in
  (match out with
  | None -> ()
  | Some path ->
      J.write_file ~indent:2 path data;
      Printf.printf "wrote %s\n" path);
  data

(* ---------- smoke: tiny campaign + the harness's own invariants ---------- *)

let smoke ~attacks ~seed ~jobs () =
  section
    (Printf.sprintf "Smoke: %d attacks/server, seed %d, jobs %d" attacks seed
       jobs);
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "SMOKE FAIL: %s\n%!" msg;
        exit 1)
      fmt
  in
  let parallel = H.Attack_experiment.run_all ~attacks ~seed ~jobs () in
  let sequential = H.Attack_experiment.run_all ~attacks ~seed ~jobs:1 () in
  if parallel <> sequential then
    fail "jobs=%d and jobs=1 summaries differ for the same seed" jobs;
  let workloads = List.length W.all in
  let compiles = W.compile_count () in
  let builds = Ipds_core.System.build_count () in
  (* Both run_alls used one configuration per workload; the caches must
     have collapsed them to exactly one compile and one build each. *)
  if compiles > workloads then
    fail "%d minic compiles for %d workload configurations" compiles workloads;
  if builds > workloads then
    fail "%d system builds for %d workload configurations" builds workloads;
  print_endline (H.Attack_experiment.render parallel);
  Printf.printf
    "smoke OK: deterministic across jobs; %d compiles / %d builds for %d \
     workloads\n"
    compiles builds workloads;
  J.Obj
    [
      ("summary", H.Attack_bench.summary_json parallel);
      ("compiles", J.Int compiles);
      ("builds", J.Int builds);
    ]

(* ---------- driver ---------- *)

type opts = {
  attacks : int option;  (* None: per-target historical default *)
  seed : int;
  jobs : int;
  json : string option;
  precision_out : string option;  (* precision-lift report file *)
  attacks_out : string option;  (* attack-universes report file *)
  universes : H.Attack_experiment.universe list;  (* for the attacks target *)
}

(* Every target, by name: the one table that both argument validation
   and dispatch read. *)
let target_table : (string * (opts -> Pool.t option -> unit -> J.t)) list =
  let att o default = Option.value o.attacks ~default in
  [
    ("fig7", fun o pool -> fig7 ~attacks:(att o 100) ~seed:o.seed ?pool);
    ("fig8", fun _ _ -> fig8);
    ("fig9", fun _ pool -> fig9 ?pool);
    ("table1", fun _ _ -> table1);
    ("compile-time", fun _ _ -> compile_time);
    ( "ablation",
      fun o pool ->
        sweep ~title:"Ablation" H.Sweep.ablation ~attacks:(att o 40)
          ~seed:o.seed ?pool );
    ( "opt-levels",
      fun o pool ->
        sweep
          ~title:
            "Optimization levels (paper: \"compiler optimizations can remove \
             some correlations\")"
          H.Sweep.opt_levels ~attacks:(att o 40) ~seed:o.seed ?pool );
    ( "baseline",
      fun o pool -> baseline ~attacks:(att o 100) ~seed:o.seed ?pool );
    ("ctx", fun _ _ -> ctx);
    ( "models",
      fun o pool ->
        sweep ~title:"Attack models (paper §3): overflow vs arbitrary write"
          ~per_variant:true H.Sweep.models ~attacks:(att o 100) ~seed:o.seed
          ?pool );
    ( "precision",
      fun o pool ->
        precision ~attacks:(att o 100) ~seed:o.seed ?pool ~out:o.precision_out );
    ( "attacks",
      fun o pool ->
        attacks_bench ~attacks:(att o 40) ~seed:o.seed ~universes:o.universes
          ?pool ~out:o.attacks_out );
    ("smoke", fun o _ -> smoke ~attacks:(att o 5) ~seed:o.seed ~jobs:o.jobs);
  ]

let report = ref []  (* (target, wall seconds, data), reverse order *)

let timed name f =
  if Ipds_obs.Events.enabled () then
    Ipds_obs.Events.emit ~kind:"bench.phase_start"
      [ ("target", Ipds_obs.Json.String name) ];
  let t0 = Unix.gettimeofday () in
  let data = Ipds_obs.Span.time ("bench." ^ name) f in
  let dt = Unix.gettimeofday () -. t0 in
  if Ipds_obs.Events.enabled () then
    Ipds_obs.Events.emit ~kind:"bench.phase_end"
      [
        ("target", Ipds_obs.Json.String name);
        ("wall_seconds", Ipds_obs.Json.Float dt);
      ];
  report := (name, dt, data) :: !report

let run_target opts pool name =
  timed name (List.assoc name target_table opts pool)

let default_targets =
  [
    "table1"; "fig8"; "fig7"; "fig9"; "compile-time"; "ablation";
    "opt-levels"; "baseline"; "models"; "ctx"; "precision"; "attacks";
  ]

let cache_json () =
  match Ipds_artifact.Store.ambient () with
  | None -> J.Obj [ ("enabled", J.Bool false) ]
  | Some store ->
      let c = Ipds_artifact.Store.counters () in
      J.Obj
        [
          ("enabled", J.Bool true);
          ("dir", J.String (Ipds_artifact.Store.dir store));
          ("artifact_hits", J.Int c.Ipds_artifact.Store.hits);
          ("artifact_misses", J.Int c.Ipds_artifact.Store.misses);
          ("corrupt_entries", J.Int c.Ipds_artifact.Store.corrupt);
          ("fn_hits", J.Int c.Ipds_artifact.Store.fn_hits);
          ("fn_misses", J.Int c.Ipds_artifact.Store.fn_misses);
          ("fn_precision_misses", J.Int c.Ipds_artifact.Store.fn_precision_misses);
          ("fn_corrupt_entries", J.Int c.Ipds_artifact.Store.fn_corrupt);
          ("collisions", J.Int c.Ipds_artifact.Store.collisions);
          ("publish_failures", J.Int c.Ipds_artifact.Store.publish_failed);
          ("bytes_read", J.Int c.Ipds_artifact.Store.bytes_read);
          ("bytes_written", J.Int c.Ipds_artifact.Store.bytes_written);
          ("load_wall_seconds", J.Float c.Ipds_artifact.Store.load_seconds);
          ("store_wall_seconds", J.Float c.Ipds_artifact.Store.store_seconds);
        ]

let write_report opts ~targets ~total_seconds path =
  let tm = Unix.localtime (Unix.time ()) in
  let date =
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  let phases =
    List.rev_map
      (fun (name, dt, data) ->
        J.Obj
          [ ("name", J.String name); ("wall_seconds", J.Float dt); ("data", data) ])
      !report
  in
  J.write_file ~indent:2 path
    (J.Obj
       [
         ("date", J.String date);
         ("targets", J.List (List.map (fun t -> J.String t) targets));
         ( "attacks",
           match opts.attacks with Some n -> J.Int n | None -> J.Null );
         ("seed", J.Int opts.seed);
         ("jobs", J.Int opts.jobs);
         ("total_wall_seconds", J.Float total_seconds);
         ("minic_compiles", J.Int (W.compile_count ()));
         ("system_builds", J.Int (Ipds_core.System.build_count ()));
         ("cache", cache_json ());
         ("manifest", Ipds_obs.Manifest.to_json ());
         (* deterministic: byte-identical across --jobs values *)
         ("metrics", H.Obs_report.metrics_json ());
         (* scheduling/wall-clock dependent: pool activity, span timers *)
         ("runtime_metrics", H.Obs_report.runtime_json ());
         ("phases", J.List phases);
       ]);
  Printf.printf "\nwrote %s\n" path

let () =
  let attacks = ref None in
  let seed = ref 2006 in
  let jobs = ref (Pool.default_jobs ()) in
  let json = ref None in
  let precision_out = ref (Some "BENCH_precision.json") in
  let attacks_out = ref (Some "BENCH_attacks.json") in
  let universes = ref [ "mem"; "cond-flip"; "insn-skip" ] in
  let events = ref (Sys.getenv_opt "IPDS_EVENTS") in
  let targets_rev = ref [] in
  let spec =
    Arg.align
      [
        ( "--attacks",
          Arg.Int (fun n -> attacks := Some n),
          "N Attacks per server (default: per-target, 100 or 40)" );
        ("--seed", Arg.Set_int seed, "S Base PRNG seed (default 2006)");
        ( "--jobs",
          Arg.Set_int jobs,
          "N Worker domains (default: cores - 1 or IPDS_JOBS; 1 = sequential)" );
        ( "--json",
          Arg.String (fun f -> json := Some f),
          "FILE Write a machine-readable report" );
        ( "--precision-out",
          Arg.String (fun f -> precision_out := Some f),
          "FILE Precision-lift report (default BENCH_precision.json)" );
        ( "--attacks-out",
          Arg.String (fun f -> attacks_out := Some f),
          "FILE Attack-universes report (default BENCH_attacks.json)" );
        ( "--universes",
          Arg.String
            (fun s -> universes := String.split_on_char ',' s),
          "LIST Comma-separated universes for the attacks target (default \
           mem,cond-flip,insn-skip)" );
        ( "--events",
          Arg.String (fun f -> events := Some f),
          "FILE Stream structured JSONL events (default: IPDS_EVENTS)" );
        ( "--cache-dir",
          Arg.String
            (fun d -> Ipds_artifact.Store.set_ambient_dir (Some d)),
          "DIR Load/publish prebuilt .ipds artifacts under DIR (default: \
           IPDS_CACHE_DIR)" );
        ( "--no-cache",
          Arg.Unit (fun () -> Ipds_artifact.Store.set_ambient_dir None),
          " Disable the artifact cache, ignoring IPDS_CACHE_DIR" );
      ]
  in
  let usage = "bench/main.exe [flags] [targets...]   (see source header)" in
  let argv =
    Array.of_list
      (Sys.executable_name
      :: List.filter
           (fun a -> not (String.equal a "--"))
           (List.tl (Array.to_list Sys.argv)))
  in
  (try Arg.parse_argv argv spec (fun t -> targets_rev := t :: !targets_rev) usage
   with
  | Arg.Bad msg ->
      prerr_string msg;
      exit 2
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  (* reject every bad name before the first (possibly long) target runs *)
  let bad fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt in
  let universes =
    List.map
      (fun name ->
        match H.Attack_experiment.universe_of_name name with
        | Some u -> u
        | None ->
            bad "unknown attack universe: %s (expected mem, cond-flip or \
                 insn-skip)"
              name)
      !universes
  in
  let targets =
    match List.rev !targets_rev with
    | [] | [ "full" ] -> default_targets
    | ts -> ts
  in
  List.iter
    (fun t ->
      if not (List.mem_assoc t target_table) then bad "unknown bench target: %s" t)
    targets;
  let opts =
    {
      attacks = !attacks;
      seed = !seed;
      jobs = max 1 !jobs;
      json = !json;
      precision_out = !precision_out;
      attacks_out = !attacks_out;
      universes;
    }
  in
  (* the manifest must be complete before the event sink opens: the
     sink's first line embeds it *)
  let module Manifest = Ipds_obs.Manifest in
  Manifest.set_string "tool" "bench";
  Manifest.set_int "seed" opts.seed;
  Manifest.set_int "jobs" opts.jobs;
  Manifest.set "attacks"
    (match opts.attacks with
    | Some n -> Ipds_obs.Json.Int n
    | None -> Ipds_obs.Json.Null);
  Manifest.set "targets"
    (Ipds_obs.Json.List (List.map (fun t -> Ipds_obs.Json.String t) targets));
  Manifest.set_int "artifact_format_version" Ipds_artifact.Object_file.format_version;
  Ipds_obs.Events.set_path !events;
  let pool = if opts.jobs = 1 then None else Some (Pool.create ~jobs:opts.jobs ()) in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Pool.shutdown pool;
      Ipds_obs.Events.close ())
    (fun () -> List.iter (run_target opts pool) targets);
  let total_seconds = Unix.gettimeofday () -. t0 in
  (match Ipds_artifact.Store.ambient () with
  | None -> ()
  | Some store ->
      let c = Ipds_artifact.Store.counters () in
      Printf.printf
        "\nartifact cache %s: %d hits, %d misses (%d corrupt), fn tier %d \
         hits, %d misses (%d corrupt), %d KiB read, %d KiB written, load \
         %.3fs, store %.3fs\n"
        (Ipds_artifact.Store.dir store)
        c.Ipds_artifact.Store.hits c.Ipds_artifact.Store.misses
        c.Ipds_artifact.Store.corrupt c.Ipds_artifact.Store.fn_hits
        c.Ipds_artifact.Store.fn_misses c.Ipds_artifact.Store.fn_corrupt
        (c.Ipds_artifact.Store.bytes_read / 1024)
        (c.Ipds_artifact.Store.bytes_written / 1024)
        c.Ipds_artifact.Store.load_seconds c.Ipds_artifact.Store.store_seconds;
      (* faults are rare enough that a healthy run should print nothing *)
      if c.Ipds_artifact.Store.collisions > 0
         || c.Ipds_artifact.Store.publish_failed > 0
      then
        Printf.printf "artifact cache faults: %d collisions, %d failed publishes\n"
          c.Ipds_artifact.Store.collisions
          c.Ipds_artifact.Store.publish_failed);
  Option.iter (write_report opts ~targets ~total_seconds) opts.json
