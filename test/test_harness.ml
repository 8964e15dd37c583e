(* Tests for the experiment harness: table rendering, experiment rows,
   and the statistics they report. *)

module H = Ipds_harness
module W = Ipds_workloads.Workloads
module J = Ipds_obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub haystack i nn) needle || go (i + 1)) in
  go 0

let test_stats () =
  check "mean" true
    (match H.Stats.mean [ 1.; 2.; 3. ] with
    | Some m -> abs_float (m -. 2.) < 1e-9
    | None -> false);
  check "mean empty" true (H.Stats.mean [] = None);
  check "mean_exn empty raises" true
    (match H.Stats.mean_exn [] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "stddev of constant" true (H.Stats.stddev [ 5.; 5.; 5. ] = 0.);
  check "stddev" true (abs_float (H.Stats.stddev [ 1.; 2.; 3. ] -. 1.) < 1e-9);
  check "stddev singleton" true (H.Stats.stddev [ 4. ] = 0.);
  check "min/max" true
    (H.Stats.minimum [ 3.; 1.; 2. ] = Some 1.
    && H.Stats.maximum [ 3.; 1.; 2. ] = Some 3.);
  check "min/max empty" true
    (H.Stats.minimum [] = None && H.Stats.maximum [] = None);
  check "mean_sd renders" true (String.length (H.Stats.mean_sd [ 0.5; 0.6 ]) > 0);
  (* an empty sample must be visibly absent, not a fake 0.0% data point *)
  check "mean_sd empty is n/a" true (String.equal (H.Stats.mean_sd []) "n/a")

(* Empty-sample rendering: a table over zero rows must show "n/a" in its
   AVERAGE cells, never "0.0%" (which would read as a measured value). *)
let test_empty_sample_rendering () =
  let empty = H.Attack_experiment.summarize [] in
  check "attack render n/a" true
    (contains (H.Attack_experiment.render empty) "n/a"
    && not (contains (H.Attack_experiment.render empty) "0.0%"));
  check "sweep render n/a" true
    (contains
       (H.Sweep.render
          [
            {
              H.Sweep.label = "none";
              summary = empty;
              checked_branches = 0;
              total_branches = 0;
              avg_bat_bits = None;
            };
          ])
       "n/a");
  check "perf render n/a" true (contains (H.Perf_experiment.render []) "n/a");
  check "census render n/a" true (contains (H.Size_census.render []) "n/a");
  check "baseline render n/a" true
    (contains (H.Baseline_experiment.render []) "n/a")

(* ---------- JSON: parser, atomic writes, concurrent writers ---------- *)

let test_json_parser () =
  let doc =
    J.Obj
      [
        ("int", J.Int (-42));
        ("float", J.Float 1.5);
        ("str", J.String "a\"b\\c\n\t\xe2\x82\xac");
        ("list", J.List [ J.Bool true; J.Bool false; J.Null ]);
        ("nested", J.Obj [ ("k", J.Int 0) ]);
      ]
  in
  check "roundtrips" true (J.of_string (J.to_string doc) = doc);
  check "ints stay ints" true (J.of_string "7" = J.Int 7);
  check "exponents parse as floats" true
    (match J.of_string "1e3" with J.Float f -> f = 1000. | _ -> false);
  check "unicode escapes decode to UTF-8" true
    (J.of_string "\"\\u20ac\"" = J.String "\xe2\x82\xac");
  check "member" true
    (J.member "int" doc = Some (J.Int (-42))
    && J.member "absent" doc = None
    && J.member "k" (J.Int 3) = None);
  check "trailing garbage rejected" true
    (match J.of_string "{} x" with
    | exception J.Parse_error _ -> true
    | _ -> false);
  check "malformed rejected" true
    (match J.of_string "{\"a\":" with
    | exception J.Parse_error _ -> true
    | _ -> false)

let test_concurrent_write_file () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ipds-json-race-%d.json" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* A large-ish document per writer makes torn writes detectable:
         a mixed file would fail to parse or carry an inconsistent pair. *)
      let doc tag =
        J.Obj
          [
            ("writer", J.Int tag);
            ("check", J.Int (tag * 1000));
            ("pad", J.List (List.init 200 (fun i -> J.Int (tag + i))));
          ]
      in
      let writers = 8 and rounds = 25 in
      let domains =
        List.init writers (fun tag ->
            Domain.spawn (fun () ->
                for _ = 1 to rounds do
                  J.write_file path (doc tag)
                done))
      in
      List.iter Domain.join domains;
      (* the survivor must be one complete document from one writer *)
      let ic = open_in path in
      let n = in_channel_length ic in
      let contents = really_input_string ic n in
      close_in ic;
      let parsed = J.of_string contents in
      let tag =
        match J.member "writer" parsed with
        | Some (J.Int t) -> t
        | _ -> Alcotest.fail "no writer field"
      in
      check "consistent document" true
        (parsed = doc tag);
      (* no temp litter left behind *)
      let dir = Filename.dirname path and base = Filename.basename path in
      let litter =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f ->
               String.length f > String.length base
               && String.sub f 0 (String.length base) = base)
      in
      check "temp files cleaned up" true (litter = []))

(* ---------- metrics determinism across job counts ---------- *)

(* The Fig-7 campaign over every workload, on a pool of [jobs]. *)
let fig7 ~attacks ~seed ~jobs =
  Ipds_parallel.Pool.with_opt ~jobs (fun pool ->
      (List.hd (H.Sweep.run ~attacks ~seed ?pool [ H.Sweep.universe `Mem ]))
        .H.Sweep.summary)

let test_metrics_jobs_deterministic () =
  (* Warm every per-process cache first: memo hits/computed are stable
     but depend on the process's warm/cold state, so both measured runs
     must start from the same (warm) state. *)
  ignore (fig7 ~attacks:3 ~seed:13 ~jobs:2);
  let snap jobs =
    Ipds_obs.Registry.reset ();
    ignore (fig7 ~attacks:3 ~seed:13 ~jobs);
    Ipds_obs.Json.to_string
      (Ipds_obs.Registry.snapshot_json ~stability:`Stable ())
  in
  let s1 = snap 1 in
  let s4 = snap 4 in
  Alcotest.(check string) "stable metrics byte-identical across jobs" s1 s4;
  check "metrics are non-trivial" true
    (String.length s1 > 2 && s1 <> "{}")

let test_table_render () =
  let s = H.Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "" ] ] in
  check "has header" true (contains s "a");
  check "pads columns" true (contains s "| 1   | 2  |");
  check "pct" true (String.equal (H.Table.pct 0.493) "49.3%");
  check "f1" true (String.equal (H.Table.f1 1.25) "1.2" || String.equal (H.Table.f1 1.25) "1.3")

let test_attack_experiment_row () =
  let row = H.Attack_experiment.run ~attacks:15 (W.find "telnetd") in
  check_int "requested attacks injected" 15 row.H.Attack_experiment.attacks;
  check "detected <= cf_changed is not required, but detected <= attacks" true
    (row.H.Attack_experiment.detected <= row.H.Attack_experiment.attacks);
  check "cf_changed <= attacks" true
    (row.H.Attack_experiment.cf_changed <= row.H.Attack_experiment.attacks);
  (* Detection implies control-flow change (no-FP corollary). *)
  check "detected <= cf_changed" true
    (row.H.Attack_experiment.detected <= row.H.Attack_experiment.cf_changed)

let test_attack_experiment_deterministic () =
  let r1 = H.Attack_experiment.run ~attacks:10 ~seed:5 (W.find "crond") in
  let r2 = H.Attack_experiment.run ~attacks:10 ~seed:5 (W.find "crond") in
  check "same seed same results" true (r1 = r2)

let test_run_all_jobs_deterministic () =
  (* The tentpole guarantee: per-attempt splittable seeding makes the
     campaign bit-for-bit identical for any domain count.  Both
     campaigns use one configuration per workload, so the memos must
     collapse them to at most one compile and one build each. *)
  let compiles = W.compile_count () and builds = Ipds_core.System.build_count () in
  let sequential = fig7 ~attacks:5 ~seed:11 ~jobs:1 in
  let parallel = fig7 ~attacks:5 ~seed:11 ~jobs:4 in
  check "jobs=1 equals jobs=4" true (sequential = parallel);
  let workloads = List.length W.all in
  check "at most one compile per workload" true
    (W.compile_count () - compiles <= workloads);
  check "at most one build per workload" true
    (Ipds_core.System.build_count () - builds <= workloads)

let test_golden_campaign_rows () =
  (* Frozen `ipds attack` CLI rows (name salts include the CLI's "@"
     prefix).  These anchor the typed-tamper-site refactor: any change
     to the attempt schedule or the memory universes shows up here as a
     changed injected/detected count. *)
  let check_row name model attacks seed exp_detected =
    let w = W.find (String.sub name 1 (String.length name - 1)) in
    let r =
      H.Attack_experiment.campaign ~attacks ~seed ~model ~name (W.system w)
    in
    check_int (name ^ " injected") attacks r.H.Attack_experiment.attacks;
    check_int (name ^ " detected") exp_detected r.H.Attack_experiment.detected
  in
  check_row "@telnetd" `Arbitrary_write 12 2006 2;
  check_row "@crond" `Arbitrary_write 12 7 2;
  check_row "@telnetd" `Stack_overflow 12 2006 2;
  check_row "@sysklogd" `Stack_overflow 10 42 2

let test_branch_fault_universes () =
  (* The branch-fault universes: a committed flip or skip always moves
     the branch-trace digest, so cf_changed tracks injections exactly;
     rows stay deterministic for a fixed seed. *)
  List.iter
    (fun u ->
      let name = H.Attack_experiment.universe_name u in
      let r =
        H.Attack_experiment.run ~universe:u ~attacks:10 ~seed:3
          (W.find "telnetd")
      in
      check_int (name ^ " injected") 10 r.H.Attack_experiment.attacks;
      check_int (name ^ " changes the committed trace") 10
        r.H.Attack_experiment.cf_changed;
      check (name ^ " detected within cf_changed") true
        (r.H.Attack_experiment.detected <= r.H.Attack_experiment.cf_changed);
      let r' =
        H.Attack_experiment.run ~universe:u ~attacks:10 ~seed:3
          (W.find "telnetd")
      in
      check (name ^ " deterministic") true (r = r'))
    [ `Cond_flip; `Insn_skip ];
  check "universe names round-trip" true
    (List.for_all
       (fun u ->
         H.Attack_experiment.universe_of_name (H.Attack_experiment.universe_name u)
         = Some u)
       [ `Mem; `Cond_flip; `Insn_skip ])

(* Each generated member is built once, and every universe attacks that
   one system; the built-in workloads come warm from [W.system]. *)
let test_population_builds () =
  List.iter (fun w -> ignore (W.system w)) W.all;
  let config =
    {
      H.Attack_bench.default_config with
      attacks = 2;
      pop_members = 3;
      pop_attacks = 2;
      dme_attacks = 2;
      dme_holdout = 2;
    }
  in
  let b0 = Ipds_core.System.build_count () in
  let r = H.Attack_bench.run ~config () in
  check_int "distinct members" 3 r.H.Attack_bench.pop_distinct;
  check_int "three universes" 3 (List.length r.H.Attack_bench.pop_universes);
  check_int "system.builds moved by pop_members" 3
    (Ipds_core.System.build_count () - b0)

let test_summarize () =
  let rows =
    [
      { H.Attack_experiment.workload = "a"; attacks = 10; cf_changed = 5; detected = 4 };
      { H.Attack_experiment.workload = "b"; attacks = 10; cf_changed = 10; detected = 5 };
    ]
  in
  let s = H.Attack_experiment.summarize rows in
  check "avg cf" true (abs_float (s.H.Attack_experiment.avg_cf_changed -. 0.75) < 1e-9);
  check "avg detected" true (abs_float (s.H.Attack_experiment.avg_detected -. 0.45) < 1e-9);
  check "detected|cf" true (abs_float (s.H.Attack_experiment.detected_given_cf -. 0.65) < 1e-9);
  let rendered = H.Attack_experiment.render s in
  check "renders average row" true (contains rendered "AVERAGE")

(* The one zero-false-positive rule shared by the Fig. 7, baseline and
   DME campaign loops. *)
let test_check_sound () =
  let raises outcome =
    match H.Attack_experiment.check_sound ~name:"w" outcome with
    | () -> false
    | exception H.Attack_experiment.False_positive _ -> true
  in
  check "benign alarm" true (raises Benign_alarm);
  check "alarm without control-flow change" true
    (raises (Injected { changed = false; alarmed = true }));
  check "detected attack" false (raises (Injected { changed = true; alarmed = true }));
  check "missed attack" false (raises (Injected { changed = true; alarmed = false }));
  check "silent no-op" false (raises (Injected { changed = false; alarmed = false }));
  check "too short" false (raises Too_short);
  check "no injection" false (raises No_injection)

let test_size_census () =
  let row = H.Size_census.run (W.find "sysklogd") in
  check "bsv positive" true (row.H.Size_census.avg_bsv_bits > 0.);
  check "bsv = 2 * bcv" true
    (abs_float (row.H.Size_census.avg_bsv_bits -. (2. *. row.H.Size_census.avg_bcv_bits)) < 1e-9);
  check "bat biggest" true (row.H.Size_census.avg_bat_bits > row.H.Size_census.avg_bsv_bits)

let test_perf_experiment () =
  let row = H.Perf_experiment.run ~repeats:2 (W.find "atftpd") in
  check "baseline cycles positive" true (row.H.Perf_experiment.base_cycles > 0.);
  check "normalized >= 1" true (row.H.Perf_experiment.normalized >= 1.0);
  check "normalized < 1.25 (overhead is small)" true (row.H.Perf_experiment.normalized < 1.25);
  check "latency positive" true (row.H.Perf_experiment.avg_detection_latency > 0.)

let test_compile_time () =
  let row = H.Compile_time.run (W.find "httpd") in
  check "compile under a second" true (row.H.Compile_time.seconds < 1.0);
  check "hash search did some work" true (row.H.Compile_time.hash_attempts > 0)

(* ---------- report JSON golden strings ---------- *)

(* Each report's JSON, pinned at a small size: real rows where the
   experiment is deterministic and cheap, hand-built rows where a field
   is wall-clock.  These are the objects `bench --json` and the
   BENCH_*.json files carry, so keys and their order must not move. *)
let test_report_json () =
  let pin what golden json = Alcotest.(check string) what golden (J.to_string json) in
  let telnetd = W.find "telnetd" in
  pin "fig8"
    {|[{"workload":"telnetd","functions":2,"avg_bsv_bits":34,"avg_bcv_bits":17,"avg_bat_bits":457.5}]|}
    (H.Size_census.to_json [ H.Size_census.run telnetd ]);
  pin "fig9"
    {|[{"workload":"telnetd","instructions":3436,"base_cycles":4401.5,"ipds_cycles":4401.5,"normalized":1,"avg_detection_latency":10.204009433962264,"spills":0}]|}
    (H.Perf_experiment.to_json [ H.Perf_experiment.run telnetd ]);
  pin "baseline"
    {|[{"workload":"telnetd","ngram_fp":0.02,"ngram_detected":0,"ipds_detected":1,"cf_changed":2,"attacks":2}]|}
    (H.Baseline_experiment.to_json
       [ H.Baseline_experiment.run ~attacks:2 ~seed:2006 telnetd ]);
  pin "ctx"
    {|[{"period_cycles":2000,"switches":19,"overhead":1.2729001755077187},{"period_cycles":5000,"switches":7,"overhead":1.1042551667323328},{"period_cycles":10000,"switches":3,"overhead":1.0439091658010673},{"period_cycles":25000,"switches":1,"overhead":1.0118700526523157}]|}
    (H.Ctx_experiment.to_json (H.Ctx_experiment.run (W.find "sshd")));
  pin "sweep"
    {|[{"variant":"overflow","summary":{"rows":[{"workload":"telnetd","attacks":2,"cf_changed":0,"detected":0},{"workload":"wu-ftpd","attacks":2,"cf_changed":0,"detected":0},{"workload":"xinetd","attacks":2,"cf_changed":0,"detected":0},{"workload":"crond","attacks":2,"cf_changed":0,"detected":0},{"workload":"sysklogd","attacks":2,"cf_changed":0,"detected":0},{"workload":"atftpd","attacks":2,"cf_changed":0,"detected":0},{"workload":"httpd","attacks":2,"cf_changed":2,"detected":1},{"workload":"sendmail","attacks":2,"cf_changed":0,"detected":0},{"workload":"sshd","attacks":2,"cf_changed":1,"detected":1},{"workload":"portmap","attacks":2,"cf_changed":1,"detected":0},{"workload":"fwpolicyd","attacks":2,"cf_changed":0,"detected":0}],"avg_cf_changed":0.18181818181818182,"avg_detected":0.090909090909090912,"detected_given_cf":0.13636363636363635},"checked_branches":105,"total_branches":240,"avg_bat_bits":699.80303030303037}]|}
    (H.Sweep.to_json
       (H.Sweep.run ~attacks:2 ~seed:2006 [ List.hd H.Sweep.models ]));
  let pass name scope units seconds =
    {
      Ipds_pass.Pass.r_name = name;
      r_scope = scope;
      r_units = units;
      r_seconds = seconds;
    }
  in
  pin "compile-time"
    {|{"per_workload":[{"workload":"telnetd","seconds":0.0030620098114013672,"hash_attempts":38}],"passes":[{"name":"layout","scope":"program","units":11,"wall_seconds_unstable":2.86102294921875e-06},{"name":"refine","scope":"function","units":0,"wall_seconds_unstable":0}]}|}
    (H.Compile_time.to_json
       [ { H.Compile_time.workload = "telnetd"; seconds = 0.0030620098114013672; hash_attempts = 38 } ]
       [
         pass "layout" Ipds_pass.Pass.Program 11 2.86102294921875e-06;
         pass "refine" Ipds_pass.Pass.Function 0 0.;
       ]);
  let summary cf detected =
    H.Attack_experiment.summarize
      [ { H.Attack_experiment.workload = "telnetd"; attacks = 2; cf_changed = cf; detected } ]
  in
  pin "precision"
    {|{"stable":{"attacks":2,"seed":2006,"off":{"rows":[{"workload":"telnetd","attacks":2,"cf_changed":1,"detected":0}],"avg_cf_changed":0.5,"avg_detected":0,"detected_given_cf":0},"on":{"rows":[{"workload":"telnetd","attacks":2,"cf_changed":1,"detected":1}],"avg_cf_changed":0.5,"avg_detected":0.5,"detected_given_cf":1},"lift":[{"workload":"telnetd","attacks":2,"detected_off":0,"detected_on":1,"lift":1}],"workloads_lifted":1,"refine":{"refine.iterations":30,"refine.edges_pruned":10,"refine.correlations_gained":24},"functions":[{"workload":"telnetd","function":"main","iterations":2,"edges_pruned":2,"total_directions":34,"correlations_before":38,"correlations_after":44}]},"timing_unstable":{"pass_cost_off":[],"pass_cost_on":[{"pass":"refine","units":24,"wall_seconds":0.024869680404663086}]}}|}
    (H.Precision_experiment.to_json
       {
         H.Precision_experiment.attacks = 2;
         seed = 2006;
         off = summary 1 0;
         on = summary 1 1;
         lift =
           [
             {
               H.Precision_experiment.workload = "telnetd";
               attacks = 2;
               detected_off = 0;
               detected_on = 1;
             };
           ];
         refine =
           [
             ("refine.iterations", 30);
             ("refine.edges_pruned", 10);
             ("refine.correlations_gained", 24);
           ];
         functions =
           [
             ( "telnetd",
               "main",
               {
                 Ipds_correlation.Refine.iterations = 2;
                 edges_pruned = 2;
                 total_directions = 34;
                 correlations_before = 38;
                 correlations_after = 44;
                 pruned = [];
               } );
           ];
         pass_cost_off = [];
         pass_cost_on = [ pass "refine" Ipds_pass.Pass.Function 24 0.024869680404663086 ];
       });
  pin "attacks"
    {|{"stable":{"seed":2006,"attacks_per_workload":40,"universes":[{"universe":"mem","false_positives":0,"summary":{"rows":[{"workload":"telnetd","attacks":2,"cf_changed":1,"detected":1}],"avg_cf_changed":0.5,"avg_detected":0.5,"detected_given_cf":1}}],"population":{"seed":2006,"members":8,"distinct":0,"attacks_per_member":6,"universes":[]},"dme":{"attacks_per_workload":40,"holdout":12,"rows":[]}},"throughput_unstable":{"wall_seconds":0.5,"injected_attacks":2,"attacks_per_second":4}}|}
    (H.Attack_bench.to_json
       {
         H.Attack_bench.config = H.Attack_bench.default_config;
         workload_universes = [ (`Mem, summary 1 1) ];
         pop_distinct = 0;
         pop_universes = [];
         dme = [];
         wall_seconds = 0.5;
       })

let ablation_variant label =
  List.find (fun (v : H.Sweep.variant) -> v.label = label) H.Sweep.ablation

let test_ablation_variants () =
  check_int "five variants" 5 (List.length H.Sweep.ablation);
  let labels = List.map (fun (v : H.Sweep.variant) -> v.label) H.Sweep.ablation in
  check "has full" true (List.mem "full" labels);
  check "has no-affine" true (List.mem "no-affine" labels)

let test_ablation_monotonic () =
  (* Disabling correlation families cannot check MORE branches. *)
  let count (v : H.Sweep.variant) =
    List.fold_left
      (fun acc w -> acc + Ipds_core.System.checked_branch_count (v.system w))
      0 W.all
  in
  check "fewer checks without load-load" true
    (count (ablation_variant "no-load-load") <= count (ablation_variant "full"))

(* Every variant of the four sweeps at 8 attacks/server, seed 2006:
   summed attacks, cf_changed and detected, checked/total branches and
   the mean per-server BAT size.  The figures were taken from the
   per-comparison modules the sweep replaced (ablation, optimization
   levels, attack models, precision off/on), so they pin that every
   variant still builds and attacks exactly as before. *)
let test_sweep_golden () =
  let expect variants golden =
    let rows = H.Sweep.run ~attacks:8 ~seed:2006 variants in
    List.iter2
      (fun (r : H.Sweep.row) (label, attacks, cf, det, checked, total, bat) ->
        let sum f = List.fold_left (fun a row -> a + f row) 0 r.summary.rows in
        Alcotest.(check string) "label" label r.label;
        check_int (label ^ " attacks") attacks
          (sum (fun row -> row.H.Attack_experiment.attacks));
        check_int (label ^ " cf_changed") cf
          (sum (fun row -> row.H.Attack_experiment.cf_changed));
        check_int (label ^ " detected") det
          (sum (fun row -> row.H.Attack_experiment.detected));
        check_int (label ^ " checked") checked r.checked_branches;
        check_int (label ^ " total") total r.total_branches;
        Alcotest.(check string)
          (label ^ " avg BAT bits") bat
          (Option.fold ~none:"n/a" ~some:(Printf.sprintf "%.1f") r.avg_bat_bits))
      rows golden
  in
  expect H.Sweep.ablation
    [
      ("full", 88, 23, 16, 105, 240, "699.8");
      ("no-load-load", 88, 23, 10, 68, 240, "337.0");
      ("no-store-load", 88, 23, 14, 105, 240, "699.8");
      ("no-affine", 88, 23, 16, 105, 240, "699.8");
      ("precise-globals", 88, 23, 16, 105, 240, "699.8");
    ];
  expect H.Sweep.opt_levels
    [
      ("O0 (all memory)", 88, 23, 9, 190, 240, "1167.0");
      ("O1 (promotion)", 88, 23, 16, 105, 240, "699.8");
      ("O2 (opt+promotion)", 88, 27, 18, 104, 240, "647.6");
    ];
  expect H.Sweep.models
    [
      ("overflow", 88, 23, 16, 105, 240, "699.8");
      ("arbitrary", 88, 22, 14, 105, 240, "699.8");
    ];
  expect H.Sweep.precision
    [
      ("off", 88, 23, 16, 105, 240, "699.8");
      ("on", 88, 23, 19, 117, 240, "717.9");
    ]

let () =
  Alcotest.run "harness"
    [
      ("table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "empty-sample rendering" `Quick
            test_empty_sample_rendering;
        ] );
      ( "json",
        [
          Alcotest.test_case "parser" `Quick test_json_parser;
          Alcotest.test_case "concurrent writers" `Quick
            test_concurrent_write_file;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "deterministic across jobs" `Slow
            test_metrics_jobs_deterministic;
        ] );
      ( "attack",
        [
          Alcotest.test_case "row invariants" `Slow test_attack_experiment_row;
          Alcotest.test_case "deterministic" `Slow test_attack_experiment_deterministic;
          Alcotest.test_case "golden CLI rows" `Slow test_golden_campaign_rows;
          Alcotest.test_case "branch-fault universes" `Slow
            test_branch_fault_universes;
          Alcotest.test_case "deterministic across jobs" `Slow
            test_run_all_jobs_deterministic;
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "zero-false-positive rule" `Quick test_check_sound;
          Alcotest.test_case "population builds once" `Slow
            test_population_builds;
        ] );
      ( "others",
        [
          Alcotest.test_case "size census" `Quick test_size_census;
          Alcotest.test_case "perf" `Slow test_perf_experiment;
          Alcotest.test_case "compile time" `Quick test_compile_time;
          Alcotest.test_case "ablation variants" `Quick test_ablation_variants;
          Alcotest.test_case "ablation monotonic" `Slow test_ablation_monotonic;
          Alcotest.test_case "sweep golden" `Slow test_sweep_golden;
        ] );
      ( "reports",
        [ Alcotest.test_case "json golden strings" `Slow test_report_json ] );
    ]
