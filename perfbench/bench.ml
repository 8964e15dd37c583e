(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe selftest

   Runs one workload (compile-population, serve-stream or
   serve-session) as a closed loop for S seconds, checks every output,
   prints each metric by name with its unit and, as the last line, one
   JSON object: the end-to-end metrics with --trace 0, the per-layer
   metrics of a separate traced run with --trace 1.  Exits 1 when any
   output check failed.  See perfbench/README.md. *)

let workloads =
  [
    ("compile-population", Compile_population.run);
    ("serve-stream", Serve_stream.run);
    ("serve-session", Serve_session.run);
  ]

let median a = Stats.median (Stats.sorted_copy a)

(* The end-to-end metrics of a report: name, value, unit, and the line
   explaining the value's base. *)
let end_to_end (r : Common.report) =
  let p = r.Common.main in
  let ops = p.Common.attempted - p.Common.failed in
  let sorted = Common.ok_latencies p in
  let n = Array.length sorted in
  let pct q =
    match Stats.percentile sorted q with
    | Some v -> (v, Printf.sprintf "n=%d samples, %d beyond" n (Stats.beyond n q))
    | None ->
        ( (if n = 0 then 0. else sorted.(Stats.rank n q - 1)),
          Printf.sprintf "n=%d samples, only %d beyond: below the reporting rule" n
            (if n = 0 then 0 else Stats.beyond n q) )
  in
  let p50, b50 = pct 0.5 and p90, b90 = pct 0.9 in
  [
    ( "throughput_per_s",
      p.Common.work /. p.Common.wall_s,
      "1/s",
      Printf.sprintf "%.0f %s / %.3f s" p.Common.work r.Common.work_unit
        p.Common.wall_s );
    ("latency_p50_ms", Common.ms p50, "ms", b50);
    ("latency_p90_ms", Common.ms p90, "ms", b90);
    ( "cpu_us_per_op",
      Stats.cpu_us_per_op ~self_s:p.Common.cpu_self_s
        ~child_s:p.Common.cpu_child_s ~ops,
      "us",
      Printf.sprintf "(%.3f s benchmark + %.3f s server child) / %d operations"
        p.Common.cpu_self_s p.Common.cpu_child_s ops );
    ("peak_rss_mb", r.Common.rss_mb, "MB", "VmHWM of the " ^ r.Common.rss_of);
    ( "setup_s",
      median r.Common.setup_s,
      "s",
      Printf.sprintf "median of %d set-ups: %s" (Array.length r.Common.setup_s)
        (String.concat ", "
           (Array.to_list (Array.map (Printf.sprintf "%.4f") r.Common.setup_s))) );
  ]

let json_metrics rows =
  String.concat ","
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name
           (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
           unit)
       rows)

let run_workload ~name ~seed ~seconds ~traced =
  let run = List.assoc name workloads in
  let r = run ~seed ~seconds ~limit:None ~traced in
  let p = r.Common.main in
  Printf.printf "workload %s, seed %d, %g s, trace %d\n" name seed seconds
    (if traced then 1 else 0);
  let e2e = end_to_end r in
  List.iter
    (fun (n, v, u, base) -> Printf.printf "%-22s %14.6g %-5s (%s)\n" n v u base)
    e2e;
  Printf.printf "%-22s %s\n" "failed_share"
    (Stats.ratio_to_string
       (Stats.ratio ~num:(float_of_int p.Common.failed)
          ~den:(float_of_int p.Common.attempted) ~base:"operations"));
  List.iter
    (fun (n, v) ->
      Printf.printf "count %-30s %s (first %d operations)\n" n (Stats.fmt_count v)
        Common.prefix)
    r.Common.counts;
  List.iter print_endline r.Common.notes;
  let metrics =
    if traced then begin
      (* the deterministic counts double as per-layer metrics *)
      let layers = r.Common.layers @ r.Common.counts in
      let layer n = Option.value (List.assoc_opt n layers) ~default:0. in
      List.iter
        (fun (n, u) ->
          Printf.printf "layer %-24s %14.6g %-5s%s\n" n (layer n) u
            (if List.mem_assoc n layers then "" else " (not crossed)"))
        Common.layer_metrics;
      let self = Spans.summary () in
      Printf.printf "span self time (traced phase and side measurements):\n";
      Hashtbl.fold (fun k (a : Spans.agg) acc -> (k, a) :: acc) self []
      |> List.sort (fun (_, a) (_, b) -> Float.compare b.Spans.self a.Spans.self)
      |> List.iter (fun (k, (a : Spans.agg)) ->
             Printf.printf "  %-22s %8d spans  total %10.3f ms  self %10.3f ms\n" k
               a.Spans.count (Common.ms a.Spans.total) (Common.ms a.Spans.self));
      Proc.mkdir_p Proc.work_dir;
      let path =
        Filename.concat Proc.work_dir (Printf.sprintf "spans-%s-%d.jsonl" name seed)
      in
      Spans.write path;
      Printf.printf "spans written to %s\n" path;
      List.map (fun (n, u) -> (n, layer n, u)) Common.layer_metrics
    end
    else List.map (fun (n, v, u, _) -> (n, v, u)) e2e
  in
  let correct = p.Common.failed = 0 in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct p.Common.attempted p.Common.failed (json_metrics metrics);
  if not correct then exit 1

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       bench.exe selftest";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "serve-child"; sock ] -> Proc.serve_child sock
  | [ _; "selftest" ] -> Selftest.run ~workloads ()
  | _ :: args ->
      let rec parse acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let name = get "workload" in
      if not (List.mem_assoc name workloads) then usage ();
      let seed =
        match int_of_string_opt (get "seed") with Some s -> s | None -> usage ()
      in
      let seconds =
        match float_of_string_opt (get "seconds") with
        | Some s when s > 0. -> s
        | _ -> usage ()
      in
      let traced =
        match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
      in
      Ipds_artifact.Store.set_ambient_dir None;
      run_workload ~name ~seed ~seconds ~traced
  | [] -> usage ()
