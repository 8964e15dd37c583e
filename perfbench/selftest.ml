(* The benchmark's own tests: the statistics helpers, and that every
   deterministic count repeats exactly across two runs with one seed
   while a different seed changes the generated inputs.  Each workload
   runs a fixed, small number of operations. *)

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let stats () =
  let upto n = Stats.sorted_copy (Array.init n float_of_int) in
  check "p50 of 100 samples" (Stats.percentile (upto 100) 0.5 = Some 49.);
  check "p90 of 100 samples leaves 10 beyond"
    (Stats.percentile (upto 100) 0.9 = Some 89.);
  check "p90 of 99 samples is not reportable" (Stats.percentile (upto 99) 0.9 = None);
  check "p99 of 100 samples is not reportable"
    (Stats.percentile (upto 100) 0.99 = None);
  check "p99 of 1000 samples leaves 10 beyond"
    (Stats.percentile (upto 1000) 0.99 = Some 989.);
  check "highest reportable percentile of 200 samples is p95"
    (Stats.highest_reportable 200 [ 0.5; 0.9; 0.95; 0.99 ] = Some 0.95);
  check "no percentile of 5 samples" (Stats.highest_reportable 5 [ 0.5; 0.9 ] = None);
  check "median of an even count" (Stats.median [| 1.; 2.; 3.; 10. |] = 2.5);
  check "a ratio prints its base"
    (String.equal
       (Stats.ratio_to_string (Stats.ratio ~num:18. ~den:25. ~base:"loads"))
       "0.7200 (18/25 loads)");
  check "a ratio over nothing is 0"
    (Stats.ratio_value (Stats.ratio ~num:0. ~den:0. ~base:"loads") = 0.);
  check "cpu_us_per_op counts the server child"
    (Stats.cpu_us_per_op ~self_s:1. ~child_s:3. ~ops:4 = 1e6)

(* Per-layer metrics that are counts of deterministic work. *)
let deterministic =
  [
    "artifact.bytes"; "pass.analyze.units"; "dataflow.block_visits";
    "wire.frame_bytes"; "wire.events_per_frame"; "cache.hit_ratio";
  ]

let determinism ~workloads =
  List.iter
    (fun (name, (run : Common.workload_run)) ->
      let ops = if String.equal name "serve-stream" then 400 else Common.prefix in
      let go seed = run ~seed ~seconds:0. ~limit:(Some ops) ~traced:false in
      let a = go 7 and b = go 7 and c = go 8 in
      check (name ^ ": every operation of three runs passes its output check")
        (List.for_all
           (fun (r : Common.report) ->
             r.Common.main.Common.failed = 0 && r.Common.main.Common.attempted = ops)
           [ a; b; c ]);
      check
        (Printf.sprintf "%s: %d deterministic counts repeat with one seed" name
           (List.length a.Common.counts))
        (a.Common.counts <> [] && a.Common.counts = b.Common.counts);
      check (name ^ ": inputs repeat with one seed")
        (String.equal a.Common.inputs_digest b.Common.inputs_digest);
      check (name ^ ": another seed changes the inputs")
        (not (String.equal a.Common.inputs_digest c.Common.inputs_digest));
      if String.starts_with ~prefix:"serve-" name then
        check (name ^ ": cpu_us_per_op includes CPU the server child spent")
          (a.Common.main.Common.cpu_child_s > 0.);
      (* the counts a traced run reports as per-layer metrics *)
      let traced () =
        let r = run ~seed:7 ~seconds:0. ~limit:(Some Common.prefix) ~traced:true in
        let all = r.Common.layers @ r.Common.counts in
        List.map (fun n -> (n, List.assoc_opt n all)) deterministic
      in
      let t1 = traced () and t2 = traced () in
      check (name ^ ": traced deterministic counts repeat with one seed")
        (List.exists (fun (_, v) -> v <> None) t1 && t1 = t2))
    workloads

let run ~workloads () =
  Ipds_artifact.Store.set_ambient_dir None;
  stats ();
  determinism ~workloads;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
