(* What every workload shares: the closed loop, the report record and
   the layer metrics a traced run fills in. *)

let now = Unix.gettimeofday

(* One timed phase of a closed loop.  [lat] has one entry per attempted
   operation in issue order, [nan] for a failed one: a failure counts
   as missing every latency. *)
type phase = {
  attempted : int;
  failed : int;
  work : float;  (* work units completed: programs, verdicts or sessions *)
  wall_s : float;
  lat : float array;
  cpu_self_s : float;
  cpu_child_s : float;
}

(* Run [op 0], [op 1], ... one after the other until [seconds] of
   timed work have passed ([limit = None]) or exactly [n] operations
   ([limit = Some n], used by the self-test).  Only [op] is timed:
   [check i result] runs after it, and its wall and CPU time are taken
   out of the phase.  It returns the work units the operation
   completed, or [None] when its output was wrong or the server refused
   it; an operation that raises fails too.  [child] is the server
   child's pid, whose CPU counts too. *)
let closed_loop ?child ~seconds ~limit ~op ~check () =
  let lat = ref [] in
  let failed = ref 0 and work = ref 0. and i = ref 0 in
  let check_wall = ref 0. and check_cpu = ref 0. in
  let child_cpu () = match child with Some pid -> Proc.cpu_seconds pid | None -> 0. in
  (* every phase starts from a compacted heap, not set-up's garbage *)
  Gc.compact ();
  let c0 = child_cpu () and s0 = Proc.self_cpu_seconds () in
  let t0 = now () in
  let continue () =
    match limit with
    | Some n -> !i < n
    | None -> now () -. t0 -. !check_wall < seconds
  in
  while continue () do
    Spans.current_op := !i;
    let a = now () in
    let r = try Ok (Spans.span "op" (fun () -> op !i)) with e -> Error e in
    let b = now () in
    let cpu = Proc.self_cpu_seconds () in
    (match Result.map (check !i) r with
    | Ok (Some w) ->
        lat := (b -. a) :: !lat;
        work := !work +. w
    | Ok None | Error _ ->
        (match r with
        | Error e when !failed = 0 ->
            Printf.eprintf "operation %d raised %s\n%!" !i (Printexc.to_string e)
        | _ -> ());
        lat := nan :: !lat;
        incr failed);
    check_cpu := !check_cpu +. (Proc.self_cpu_seconds () -. cpu);
    check_wall := !check_wall +. (now () -. b);
    incr i
  done;
  Spans.current_op := -1;
  let wall_s = now () -. t0 -. !check_wall in
  let cpu_self_s = Proc.self_cpu_seconds () -. s0 -. !check_cpu in
  let cpu_child_s = child_cpu () -. c0 in
  {
    attempted = !i;
    failed = !failed;
    work = !work;
    wall_s;
    lat = Array.of_list (List.rev !lat);
    cpu_self_s;
    cpu_child_s;
  }

(* An untraced run sets up this many times and reports the median
   duration; a traced run sets up once. *)
let setup_reps ~traced = if traced then 1 else 5

(* Set up [reps] times and keep the last set-up; earlier ones are torn
   down.  Returns the kept value and each set-up's duration. *)
let repeated_setup ~reps ~setup ~teardown =
  let times = ref [] in
  let rec go k =
    let t0 = now () in
    let v = setup () in
    times := (now () -. t0) :: !times;
    if k < reps then begin
      teardown v;
      go (k + 1)
    end
    else v
  in
  let v = go 1 in
  (v, Array.of_list (List.rev !times))

type report = {
  work_unit : string;  (* what throughput counts *)
  main : phase;  (* the untraced timed phase *)
  setup_s : float array;
  rss_mb : float;
  rss_of : string;  (* whose VmHWM [rss_mb] is *)
  counts : (string * float) list;
      (* deterministic counts over the first [prefix] operations; those
         named in [layer_metrics] are per-layer metrics too *)
  inputs_digest : string;  (* fingerprint of the seeded inputs *)
  layers : (string * float) list;  (* traced run only *)
  notes : string list;  (* extra human-readable lines *)
}

type workload_run =
  seed:int -> seconds:float -> limit:int option -> traced:bool -> report

(* Deterministic counts are taken over this many leading operations,
   which every run completes, so that they do not depend on how many
   operations fit in the timed phase. *)
let prefix = 96

let fail fmt = Printf.ksprintf failwith fmt

(* ---------- per-layer metrics of a traced run ---------- *)

let us s = s *. 1e6
let ms s = s *. 1e3

(* Every per-layer metric, in BENCHMARK.json order, with its unit.  A
   workload that does not cross a layer reports 0 for it. *)
let layer_metrics =
  [
    ("minic.compile_ms", "ms"); ("system.build_ms", "ms");
    ("pass.layout_s", "s"); ("pass.prepare_s", "s"); ("pass.digest_s", "s");
    ("pass.analyze_s", "s"); ("pass.refine_s", "s"); ("pass.tables_s", "s");
    ("pass.analyze.units", "count"); ("dataflow.block_visits", "count");
    ("artifact.encode_ms", "ms"); ("artifact.decode_ms", "ms");
    ("image.validate_ms", "ms"); ("artifact.bytes", "count");
    ("sha256.image_us", "us"); ("wire.encode_us", "us");
    ("wire.scan_decode_us", "us"); ("wire.reply_us", "us");
    ("wire.frame_bytes", "count"); ("wire.events_per_frame", "count");
    ("checker.ns_per_branch", "ns"); ("session.connect_us", "us");
    ("session.load_us", "us"); ("session.trace_us", "us");
    ("session.close_us", "us"); ("cache.hit_ratio", "ratio");
    ("interp.run_us", "us"); ("interp.run_checked_us", "us");
    ("ipds.sw_overhead_pct", "%"); ("rtt.unattributed_us", "us");
    ("rtt.reconciliation", "ratio"); ("tail.latency_p99_ms", "ms");
    ("trace.overhead_pct", "%");
  ]

(* Per-build seconds of each compile pass between two [Pass.report]s. *)
let pass_seconds ~before ~after ~builds =
  let secs rows name =
    List.fold_left
      (fun acc (r : Ipds_pass.Pass.report_row) ->
        if String.equal r.Ipds_pass.Pass.r_name name then r.Ipds_pass.Pass.r_seconds
        else acc)
      0. rows
  in
  List.map
    (fun p ->
      ( "pass." ^ p ^ "_s",
        if builds = 0 then 0.
        else (secs after p -. secs before p) /. float_of_int builds ))
    [ "layout"; "prepare"; "digest"; "analyze"; "refine"; "tables" ]

let block_visits = Ipds_obs.Registry.counter "dataflow.block_visits"
let visits () = Ipds_obs.Registry.counter_value block_visits

let ok_latencies (p : phase) =
  Stats.sorted_copy
    (Array.of_list (List.filter (fun l -> not (Float.is_nan l)) (Array.to_list p.lat)))

(* What a traced run reports about itself: the tail of the untraced
   phase, and the tracing overhead — mean latency of the traced phase
   against the untraced one over the operations both completed (both
   phases issue the same operation sequence from index 0). *)
let phase_pair ~untraced ~traced =
  let n = min (Array.length untraced.lat) (Array.length traced.lat) in
  let su = ref 0. and st = ref 0. in
  for i = 0 to n - 1 do
    let u = untraced.lat.(i) and t = traced.lat.(i) in
    if not (Float.is_nan u || Float.is_nan t) then begin
      su := !su +. u;
      st := !st +. t
    end
  done;
  let sorted = ok_latencies untraced in
  let p, tail =
    match Stats.highest_reportable (Array.length sorted) [ 0.5; 0.9; 0.95; 0.99 ] with
    | Some p -> (p, Option.get (Stats.percentile sorted p))
    | None -> (1., Stats.median sorted)
  in
  ( [
      ("tail.latency_p99_ms", ms tail);
      ("trace.overhead_pct", if !su = 0. then 0. else (!st -. !su) /. !su *. 100.);
    ],
    Printf.sprintf
      "tail.latency_p99_ms is the p%g of %d untraced operations; \
       trace.overhead_pct compares %d operations (traced %.1f ms / untraced %.1f ms)"
      (p *. 100.) (Array.length sorted) n (ms !st) (ms !su) )

(* A built-in workload compiled the way [ipds check-remote] gets it:
   front end, register promotion, analysis with the default options,
   artifact.  Not
   [Workloads.system], which memoises and consults the ambient artifact
   store: every set-up must compile, and read nothing outside the
   checkout. *)
let compile_builtin (w : Ipds_workloads.Workloads.t) =
  let program =
    Spans.span "minic.compile" (fun () ->
        Ipds_opt.Promote.program
          (Ipds_minic.Minic.compile w.Ipds_workloads.Workloads.source))
  in
  let system =
    Spans.span "system.build" (fun () -> Ipds_core.System.build program)
  in
  let image =
    Spans.span "artifact.encode" (fun () -> Ipds_artifact.Artifact.to_bytes system)
  in
  (program, system, image)

(* The events a checker sees, and so the ones [Client.trace] ships. *)
let relevant (e : Ipds_machine.Event.t) =
  let module E = Ipds_machine.Event in
  match e.E.kind with E.Call _ | E.Ret | E.Branch _ -> true | _ -> false

let render alarms = List.map Ipds_serve.Protocol.verdict_to_string alarms
