(* Observability smoke test (the @obs-smoke alias, wired into runtest):
   run a small attack campaign with the event sink on, then validate

     - the JSONL event stream: every line parses, the first line is the
       manifest, seq is dense from 0, and every kind is one the
       instrumented subsystems are known to emit;
     - the metrics object: the expected stable keys exist with the
       expected JSON shapes, nothing unstable leaked in, and the
       attack.* counters reconcile exactly with the campaign's totals;
     - the runtime section carries the unstable metrics instead, the
       wall-clock timers among them. *)

module H = Ipds_harness
module J = Ipds_obs.Json
module Obs = Ipds_obs

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "OBS-SMOKE FAIL: %s\n%!" msg)
    fmt

let expect cond fmt =
  Printf.ksprintf (fun msg -> if not cond then fail "%s" msg) fmt

let known_event_kinds =
  [
    "manifest"; "interp.run"; "interp.tamper"; "attack.campaign";
    "store.corrupt"; "store.publish"; "bench.phase_start"; "bench.phase_end";
  ]

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let check_events path (summary : H.Attack_experiment.summary) =
  let lines = read_lines path in
  expect (lines <> []) "event stream is empty";
  let docs =
    List.mapi
      (fun i line ->
        match J.of_string line with
        | doc -> Some doc
        | exception J.Parse_error msg ->
            fail "event line %d does not parse: %s" i msg;
            None)
      lines
    |> List.filter_map Fun.id
  in
  let kind doc =
    match J.member "kind" doc with Some (J.String s) -> s | _ -> "?"
  in
  (match docs with
  | first :: _ ->
      expect (kind first = "manifest") "first event is %S, want manifest" (kind first);
      expect (J.member "manifest" first <> None) "manifest line lacks payload"
  | [] -> ());
  List.iteri
    (fun i doc ->
      expect
        (J.member "seq" doc = Some (J.Int i))
        "event %d: seq not dense from 0" i;
      expect (J.member "ts" doc <> None) "event %d lacks ts" i;
      let k = kind doc in
      expect (List.mem k known_event_kinds) "unknown event kind %S" k)
    docs;
  (* one campaign event per workload, agreeing with the summary rows *)
  let campaigns = List.filter (fun d -> kind d = "attack.campaign") docs in
  expect
    (List.length campaigns = List.length summary.H.Attack_experiment.rows)
    "%d campaign events for %d rows" (List.length campaigns)
    (List.length summary.H.Attack_experiment.rows);
  List.iter
    (fun (row : H.Attack_experiment.row) ->
      let matches doc =
        J.member "workload" doc = Some (J.String row.workload)
        && J.member "attacks" doc = Some (J.Int row.attacks)
        && J.member "detected" doc = Some (J.Int row.detected)
      in
      expect
        (List.exists matches campaigns)
        "no campaign event matching row %s" row.workload)
    summary.H.Attack_experiment.rows;
  expect
    (List.exists (fun d -> kind d = "interp.run") docs)
    "no interp.run events"

(* (name, shape) pairs every instrumented run of this campaign must
   produce.  New metrics may appear freely; these may not disappear. *)
let expected_metrics =
  [
    ("attack.attempts", `Counter);
    ("attack.injected", `Counter);
    ("attack.cf_changed", `Counter);
    ("attack.detected", `Counter);
    ("checker.branches", `Counter);
    ("checker.calls", `Counter);
    ("checker.returns", `Counter);
    ("checker.checked", `Counter);
    ("checker.verdict_ok", `Counter);
    ("checker.verdict_alarm", `Counter);
    ("checker.bat_updates", `Counter);
    ("interp.runs", `Counter);
    ("interp.steps", `Counter);
    ("interp.branches", `Counter);
    ("interp.injections", `Counter);
    ("interp.max_run_steps", `Gauge);
    ("interp.run_steps", `Histogram);
    ("memo.hits", `Counter);
    ("memo.computed", `Counter);
    ("system.builds", `Counter);
    ("workloads.compiles", `Counter);
  ]

let shape_ok = function
  | `Counter, J.Int _ -> true
  | `Gauge, J.Obj _ as v -> (
      match v with
      | _, doc -> J.member "type" doc = Some (J.String "gauge"))
  | `Histogram, (J.Obj _ as doc) ->
      J.member "type" doc = Some (J.String "histogram")
      && J.member "buckets" doc <> None
      && J.member "count" doc <> None
      && J.member "sum" doc <> None
  | _ -> false

let check_metrics (summary : H.Attack_experiment.summary) =
  let metrics = Obs.Registry.snapshot_json ~stability:`Stable () in
  List.iter
    (fun (name, shape) ->
      match J.member name metrics with
      | None -> fail "metrics object lacks %s" name
      | Some v ->
          expect (shape_ok (shape, v)) "metric %s has the wrong shape" name)
    expected_metrics;
  (* stable object must not contain unstable metrics *)
  List.iter
    (fun name ->
      expect (J.member name metrics = None)
        "unstable metric %s leaked into the stable object" name)
    [ "pool.maps"; "pool.tasks.worker"; "pool.tasks.caller"; "pool.jobs";
      "memo.waits" ];
  (* exact reconciliation with the campaign report *)
  let total f =
    List.fold_left (fun acc r -> acc + f r) 0 summary.H.Attack_experiment.rows
  in
  let counter name =
    match J.member name metrics with Some (J.Int n) -> n | _ -> -1
  in
  let recon name f =
    let m = counter name and t = total f in
    expect (m = t) "%s = %d but report total is %d" name m t
  in
  recon "attack.injected" (fun (r : H.Attack_experiment.row) -> r.attacks);
  recon "attack.cf_changed" (fun r -> r.cf_changed);
  recon "attack.detected" (fun r -> r.detected);
  (* the unstable metrics, a run report's runtime section, hold the
     pool metrics and the wall-clock timers instead *)
  let rm = Obs.Registry.snapshot_json ~stability:`Unstable () in
  expect (J.member "pool.maps" rm <> None)
    "runtime metrics lack pool.maps (jobs > 1 ran a pool)";
  let timer = "pass.analyze.ns" in
  (match J.member timer rm with
  | Some doc ->
      expect (shape_ok (`Histogram, doc)) "timer %s is not a histogram" timer;
      expect
        (match J.member "count" doc with
        | Some (J.Int n) -> n >= 1
        | _ -> false)
        "timer %s counted no run" timer
  | None -> fail "runtime metrics lack the timer %s" timer);
  expect (J.member timer metrics = None)
    "timer %s leaked into the stable object" timer

let () =
  let events_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ipds-obs-smoke-%d.jsonl" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove events_path with Sys_error _ -> ())
    (fun () ->
      (* the campaign must compile its systems, so that the pass timers
         run: no ambient artifact store may serve them *)
      Ipds_artifact.Store.set_ambient_dir None;
      Obs.Manifest.set_string "tool" "obs_smoke";
      Obs.Manifest.set_int "seed" 11;
      Obs.Manifest.set_int "jobs" 2;
      Obs.Events.set_path (Some events_path);
      let summary =
        Ipds_parallel.Pool.with_opt ~jobs:2 (fun pool ->
            (List.hd
               (H.Sweep.run ~attacks:2 ~seed:11 ?pool [ H.Sweep.universe `Mem ]))
              .H.Sweep.summary)
      in
      Obs.Events.close ();
      check_events events_path summary;
      check_metrics summary;
      if !failures > 0 then begin
        Printf.eprintf "obs smoke: %d failure(s)\n%!" !failures;
        exit 1
      end;
      print_endline "obs smoke OK: event stream valid, metrics reconcile")
