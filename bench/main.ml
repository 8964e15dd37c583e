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

   Every target is one call into Ipds_harness, whose modules own both
   the table and the JSON of their rows; this file holds only the
   dispatch table and the driver.  Every campaign over the built-in
   workloads runs through one driver, Ipds_harness.Sweep: fig7 is the
   "mem" universe at three seeds, attacks and smoke run universe
   variants, and ablation, opt-levels, models and precision are variant
   lists (precision adds its refine counters, per-function stats and
   per-pass cost, Ipds_harness.Precision_experiment).

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
   --jobs values) and "runtime_metrics" (pool utilisation and the
   unstable wall-clock timer histograms, "bench.<target>.ns" among
   them, which legitimately vary). *)

module H = Ipds_harness
module W = Ipds_workloads.Workloads
module Pool = Ipds_parallel.Pool
module J = Ipds_obs.Json

let section title = Printf.printf "\n=== %s ===\n%!" title

(* One harness report: its section, its table and notes, its JSON. *)
let show title ?(notes = []) render to_json run =
  section title;
  let x = run () in
  print_endline (render x);
  List.iter print_endline notes;
  to_json x

(* A target's own report file, when it has one. *)
let write_out out data =
  Option.iter
    (fun path ->
      J.write_file ~indent:2 path data;
      Printf.printf "wrote %s\n" path)
    out;
  data

(* The Fig-7 campaign: the "mem" universe over every workload. *)
let fig7_summary ~attacks ~seed ?pool () =
  (List.hd (H.Sweep.run ~attacks ~seed ?pool [ H.Sweep.universe `Mem ]))
    .H.Sweep.summary

let fig7 ~attacks ~seed ?pool () =
  section (Printf.sprintf "Figure 7: detection rate (%d attacks/server)" attacks);
  (* three independent campaigns: the first is the reported table, the
     spread across seeds quantifies sampling noise *)
  let seeds = if seed = 2006 then [ 2006; 7; 99 ] else [ seed; seed + 1; seed + 2 ] in
  let summaries = List.map (fun seed -> fig7_summary ~attacks ~seed ?pool ()) seeds in
  print_endline (H.Attack_experiment.render (List.hd summaries));
  let series f = H.Stats.mean_sd (List.map f summaries) in
  Printf.printf "across seeds: cf-changed %s, detected %s, detected|cf %s\n"
    (series (fun s -> s.H.Attack_experiment.avg_cf_changed))
    (series (fun s -> s.H.Attack_experiment.avg_detected))
    (series (fun s -> s.H.Attack_experiment.detected_given_cf));
  print_endline
    "paper: 49.4% of tamperings change control flow; 29.3% detected overall; \
     59.3% of control-flow-changing detected";
  J.Obj
    (List.map2
       (fun seed s ->
         (Printf.sprintf "seed_%d" seed, H.Attack_experiment.summary_json s))
       seeds summaries)

(* A tiny campaign twice, with and without the pool, plus the harness's
   own invariants. *)
let smoke ~attacks ~seed ~jobs pool =
  section
    (Printf.sprintf "Smoke: %d attacks/server, seed %d, jobs %d" attacks seed jobs);
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "SMOKE FAIL: %s\n%!" msg;
        exit 1)
      fmt
  in
  let parallel = fig7_summary ~attacks ~seed ?pool () in
  if parallel <> fig7_summary ~attacks ~seed () then
    fail "jobs=%d and jobs=1 summaries differ for the same seed" jobs;
  let workloads = List.length W.all in
  let compiles = W.compile_count () in
  let builds = Ipds_core.System.build_count () in
  (* Both campaigns used one configuration per workload; the caches must
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
      ("summary", H.Attack_experiment.summary_json parallel);
      ("compiles", J.Int compiles);
      ("builds", J.Int builds);
    ]

type opts = {
  attacks : int option;  (* None: per-target historical default *)
  seed : int;
  jobs : int;
  precision_out : string option;  (* precision-lift report file *)
  attacks_out : string option;  (* attack-universes report file *)
  universes : H.Attack_experiment.universe list;  (* for the attacks target *)
}

(* Every target, by name: the one table that both argument validation
   and dispatch read. *)
let target_table : (string * (opts -> Pool.t option -> J.t)) list =
  let att o default = Option.value o.attacks ~default in
  let sweep title ?(per_variant = false) variants ~default o pool =
    let attacks = att o default in
    show
      (Printf.sprintf "%s (%d attacks/server)" title attacks)
      (fun rows ->
        String.concat ""
          (H.Sweep.render rows
          :: List.map
               (fun (r : H.Sweep.row) ->
                 Printf.sprintf "\n\n-- %s --\n%s" r.label
                   (H.Attack_experiment.render r.summary))
               (if per_variant then rows else [])))
      H.Sweep.to_json
      (fun () -> H.Sweep.run ~attacks ~seed:o.seed ?pool variants)
  in
  [
    ("fig7", fun o pool -> fig7 ~attacks:(att o 100) ~seed:o.seed ?pool ());
    ( "fig8",
      fun _ _ ->
        show "Figure 8: average table sizes (bits)"
          ~notes:[ "paper averages: BSV 34, BCV 17, BAT 393" ]
          H.Size_census.render H.Size_census.to_json H.Size_census.run_all );
    ( "fig9",
      fun _ pool ->
        show "Figure 9: performance normalized to no-IPDS baseline"
          ~notes:
            [
              "paper: average degradation 0.79%";
              "paper: average detection latency 11.7 cycles";
            ]
          H.Perf_experiment.render H.Perf_experiment.to_json
          (H.Perf_experiment.run_all ?pool) );
    ( "table1",
      fun _ _ ->
        section "Table 1: simulated processor parameters";
        Format.printf "%a@." Ipds_pipeline.Config.pp Ipds_pipeline.Config.default;
        J.Null );
    ( "compile-time",
      fun _ _ ->
        show "Compile time per benchmark (paper: up to a few seconds)"
          (fun (rows, passes) ->
            Printf.sprintf "%s\nPer-pass breakdown (pipeline order):\n%s"
              (H.Compile_time.render rows)
              (Ipds_pass.Pass.render_report passes))
          (fun (rows, passes) -> H.Compile_time.to_json rows passes)
          (fun () -> H.Compile_time.(with_passes run_all)) );
    ("ablation", sweep "Ablation" H.Sweep.ablation ~default:40);
    ( "opt-levels",
      sweep
        "Optimization levels (paper: \"compiler optimizations can remove some \
         correlations\")"
        H.Sweep.opt_levels ~default:40 );
    ( "baseline",
      fun o pool ->
        let attacks = att o 100 in
        show
          (Printf.sprintf
             "Baseline comparison: 3-gram syscall-trace detector vs IPDS (%d \
              attacks/server)"
             attacks)
          H.Baseline_experiment.render H.Baseline_experiment.to_json
          (H.Baseline_experiment.run_all ~attacks ~seed:o.seed ?pool) );
    ( "ctx",
      fun _ _ ->
        show "Context switches: save/restore cost vs switch period (sshd)"
          H.Ctx_experiment.render H.Ctx_experiment.to_json (fun () ->
            H.Ctx_experiment.run (W.find "sshd")) );
    ( "models",
      sweep "Attack models (paper §3): overflow vs arbitrary write"
        ~per_variant:true H.Sweep.models ~default:100 );
    ( "precision",
      fun o pool ->
        let attacks = att o 100 in
        show
          (Printf.sprintf
             "Feasible-path refinement: detection lift (%d attacks/server)" attacks)
          H.Precision_experiment.render
          (fun r -> write_out o.precision_out (H.Precision_experiment.to_json r))
          (H.Precision_experiment.run ~attacks ~seed:o.seed ?pool) );
    ( "attacks",
      fun o pool ->
        let attacks = att o 40 in
        let config =
          {
            H.Attack_bench.default_config with
            universes = o.universes;
            attacks;
            seed = o.seed;
            dme_attacks = attacks;
          }
        in
        show
          (Printf.sprintf "Attack universes (%d attacks/server, universes: %s)"
             attacks
             (String.concat ","
                (List.map H.Attack_experiment.universe_name o.universes)))
          H.Attack_bench.render
          (fun r -> write_out o.attacks_out (H.Attack_bench.to_json r))
          (H.Attack_bench.run ~config ?pool) );
    ("smoke", fun o pool -> smoke ~attacks:(att o 5) ~seed:o.seed ~jobs:o.jobs pool);
  ]

let report = ref []  (* (target, wall seconds, data), reverse order *)

let timed name f =
  if Ipds_obs.Events.enabled () then
    Ipds_obs.Events.emit ~kind:"bench.phase_start"
      [ ("target", Ipds_obs.Json.String name) ];
  let t0 = Unix.gettimeofday () in
  let timer = Ipds_obs.Registry.timer ("bench." ^ name ^ ".ns") in
  let data = Ipds_obs.Registry.time timer f in
  let dt = Unix.gettimeofday () -. t0 in
  if Ipds_obs.Events.enabled () then
    Ipds_obs.Events.emit ~kind:"bench.phase_end"
      [
        ("target", Ipds_obs.Json.String name);
        ("wall_seconds", Ipds_obs.Json.Float dt);
      ];
  report := (name, dt, data) :: !report

let run_target opts pool name =
  timed name (fun () -> List.assoc name target_table opts pool)

let default_targets =
  [
    "table1"; "fig8"; "fig7"; "fig9"; "compile-time"; "ablation";
    "opt-levels"; "baseline"; "models"; "ctx"; "precision"; "attacks";
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
         ("attacks", Option.fold ~none:J.Null ~some:(fun n -> J.Int n) opts.attacks);
         ("seed", J.Int opts.seed);
         ("jobs", J.Int opts.jobs);
         ("total_wall_seconds", J.Float total_seconds);
         ("minic_compiles", J.Int (W.compile_count ()));
         ("system_builds", J.Int (Ipds_core.System.build_count ()));
         ("cache", Ipds_artifact.Store.ambient_json ());
         ("manifest", Ipds_obs.Manifest.to_json ());
         (* deterministic: byte-identical across --jobs values *)
         ("metrics", H.Obs_report.metrics_json ());
         (* scheduling/wall-clock dependent: pool activity, timers *)
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
  Manifest.set "attacks" (Option.fold ~none:J.Null ~some:(fun n -> J.Int n) opts.attacks);
  Manifest.set "targets" (J.List (List.map (fun t -> J.String t) targets));
  Manifest.set_int "artifact_format_version" Ipds_artifact.Object_file.format_version;
  Ipds_obs.Events.set_path !events;
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:Ipds_obs.Events.close (fun () ->
      Pool.with_opt ~jobs:opts.jobs (fun pool ->
          List.iter (run_target opts pool) targets));
  let total_seconds = Unix.gettimeofday () -. t0 in
  Option.iter (Printf.printf "\n%s\n") (Ipds_artifact.Store.ambient_summary ());
  Option.iter (write_report opts ~targets ~total_seconds) !json
