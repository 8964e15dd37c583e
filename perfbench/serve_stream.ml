(* serve-stream: one operation is one [Client.send_events] of a
   1024-event batch on one long-lived connection and one trace.  The
   batch is a recorded benign telnetd run, tiled to at least
   [Client.default_batch] events; the run enters and leaves [main], so
   the server's checker is back in its base state after every batch
   and every reply is an empty [Verdicts] frame.  Per-event cost
   dominates: client wire encode, the reactor's scan/CRC/decode and the
   flat checker.  Compile, artifact and interpreter work happen only in
   set-up. *)

module C = Ipds_serve.Client
module P = Ipds_serve.Protocol
module M = Ipds_machine
module S = Ipds_core.System

type state = {
  server : Proc.server;
  client : C.t;
  system : S.t;
  program : Ipds_mir.Program.t;
  image : Bytes.t;
  inputs_seed : int;
  batch : M.Event.t list;
  branches : int;  (* per batch *)
}

let telnetd = Ipds_workloads.Workloads.find "telnetd"

let run_inputs s = M.Input_script.random ~seed:s ()

(* Among the telnetd runs for 16 input seeds derived from [seed], the
   call-balanced, alarm-free one (replayed back to back) that tiles to
   [Client.default_batch] events with the least overshoot: batches of
   about 1040 events whatever the seed. *)
let record ~seed ~program ~system =
  let attempt k =
    let inputs_seed = Hashtbl.hash (seed, k, "serve-stream") in
    let events = ref [] in
    let o =
      M.Interp.run program
        {
          M.Interp.default_config with
          max_steps = 60_000;
          inputs = run_inputs inputs_seed;
          record_trace = false;
          sink = Some (fun e -> if Common.relevant e then events := e :: !events);
        }
    in
    let run = List.rev !events in
    let ck = S.new_checker system in
    let balanced =
      match o.M.Interp.reason with
      | M.Interp.Exited _ | M.Interp.Halted ->
          run <> []
          && List.for_all
               (fun () ->
                 M.Replay.feed_all ck ~defined:(S.mem system) run;
                 Ipds_core.Checker.depth ck = 0)
               [ (); () ]
          && Ipds_core.Checker.alarm_count ck = 0
      | _ -> false
    in
    if balanced then Some (inputs_seed, run) else None
  in
  let tiled (_, run) =
    let len = List.length run in
    len * max 1 ((C.default_batch + len - 1) / len)
  in
  match List.filter_map attempt (List.init 16 Fun.id) with
  | [] -> Common.fail "no balanced telnetd run for seed %d" seed
  | c :: cs ->
      List.fold_left (fun best c -> if tiled c < tiled best then c else best) c cs

let setup ~seed () =
  let program, system, image = Common.compile_builtin telnetd in
  let inputs_seed, run = record ~seed ~program ~system in
  let len = List.length run in
  let copies = max 1 ((C.default_batch + len - 1) / len) in
  let batch = List.concat (List.init copies (fun _ -> run)) in
  let branches =
    List.length
      (List.filter
         (fun (e : M.Event.t) ->
           match e.M.Event.kind with M.Event.Branch _ -> true | _ -> false)
         batch)
  in
  let server = Proc.spawn () in
  let client = C.connect (`Unix server.Proc.sock) in
  (match C.load_image client ~name:telnetd.Ipds_workloads.Workloads.name image with
  | Ok false -> ()
  | Ok true -> Common.fail "a fresh server reported a cache hit"
  | Error e -> Common.fail "load_image: %s" e.P.detail);
  (match C.begin_trace client with
  | Ok () -> ()
  | Error e -> Common.fail "begin_trace: %s" e.P.detail);
  { server; client; system; program; image; inputs_seed; batch; branches }

let teardown st =
  C.close st.client;
  Proc.stop st.server

(* The end_trace totals must equal what was sent. *)
let summary_ok ~(expect_batches : int) st (s : P.summary) =
  s.P.total_events = expect_batches * List.length st.batch
  && s.P.total_branches = expect_batches * st.branches
  && s.P.total_alarms = 0

(* The traced phase: a second connection to the same server drives the
   same batches through [Wire], and each exchange is replayed in
   process to split the wait. *)
let traced_phase ~st ~main ~seconds ~limit ~before ~after =
  Spans.enabled := true;
  (* the server's work for the set-up load, a cache miss *)
  let load = P.Load_image { name = "telnetd"; image = Bytes.to_string st.image } in
  Wire.replay ~checker:(S.new_checker st.system) ~system:st.system
    {
      Wire.request = load;
      bytes = P.encode_frame load;
      reply = P.Loaded { name = "telnetd"; cached = false };
    };
  let c = Wire.connect st.server.Proc.sock in
  let x = Spans.span "session.load" (fun () -> Wire.rpc c load) in
  let hits = match x.Wire.reply with P.Loaded { cached = true; _ } -> 1 | _ -> 0 in
  let t0 = Common.now () in
  (match (Wire.rpc c P.Begin_trace).Wire.reply with
  | P.Trace_started -> ()
  | _ -> Common.fail "traced begin_trace refused");
  let replay_checker = S.new_checker st.system in
  let tp =
    Common.closed_loop ~child:st.server.Proc.pid ~seconds ~limit
      ~op:(fun _ -> Wire.rpc c (P.Branch_events st.batch))
      ~check:(fun _ x ->
        Wire.replay ~checker:replay_checker ~system:st.system x;
        match x.Wire.reply with
        | P.Verdicts [] -> Some (float_of_int st.branches)
        | _ -> None)
      ()
  in
  (match (Wire.rpc c P.End_trace).Wire.reply with
  | P.Trace_summary s when summary_ok ~expect_batches:tp.Common.attempted st s -> ()
  | _ -> Common.fail "traced end_trace totals differ from what was sent");
  Spans.record "session.trace" ~start:t0 ~stop:(Common.now ());
  Wire.close c;
  (* the interpreter layer, on the recorded run's program and inputs *)
  let interp checker () =
    ignore
      (M.Interp.run st.program
         {
           M.Interp.default_config with
           max_steps = 60_000;
           inputs = run_inputs st.inputs_seed;
           checker;
           record_trace = false;
         })
  in
  Layers.interp_pair ~n:200 ~unchecked:(interp None)
    ~checked:(fun () -> interp (Some (S.new_checker st.system)) ());
  Spans.enabled := false;
  let ops = tp.Common.attempted in
  let span_layers, span_notes =
    Layers.of_spans ~serve_ops:ops ~branches:(ops * st.branches)
  in
  let hit_ratio = Stats.ratio ~num:(float_of_int hits) ~den:2. ~base:"loads" in
  let overhead, overhead_note = Common.phase_pair ~untraced:main ~traced:tp in
  ( span_layers
    @ [ ("cache.hit_ratio", Stats.ratio_value hit_ratio) ]
    @ Common.pass_seconds ~before ~after ~builds:1
    @ overhead,
    span_notes
    @ [
        overhead_note;
        "cache.hit_ratio " ^ Stats.ratio_to_string hit_ratio
        ^ ": the set-up load and the traced connection's";
        "session.trace_us is the traced connection's one trace, begin to end";
      ] )

let run ~seed ~seconds ~limit ~traced =
  let seconds = if traced then seconds /. 2. else seconds in
  if traced then Spans.enabled := true;
  let before = Ipds_pass.Pass.report () in
  let units0 = Ipds_pass.Pass.units "analyze" and visits0 = Common.visits () in
  let reps = Common.setup_reps ~traced in
  let st, setup_s = Common.repeated_setup ~reps ~setup:(setup ~seed) ~teardown in
  let after = Ipds_pass.Pass.report () in
  let units = (Ipds_pass.Pass.units "analyze" - units0) / reps in
  let visits = (Common.visits () - visits0) / reps in
  Spans.enabled := false;
  Fun.protect
    ~finally:(fun () -> teardown st)
    (fun () ->
      let pid = st.server.Proc.pid in
      let main =
        Common.closed_loop ~child:pid ~seconds ~limit
          ~op:(fun _ -> C.send_events st.client st.batch)
          ~check:(fun _ r ->
            match r with Ok [] -> Some (float_of_int st.branches) | _ -> None)
          ()
      in
      let rss_mb = Proc.peak_rss_mb pid in
      let main =
        match C.end_trace st.client with
        | Ok s when summary_ok ~expect_batches:main.Common.attempted st s -> main
        | _ ->
            {
              main with
              Common.failed = main.Common.attempted;
              work = 0.;
              lat = Array.map (fun _ -> nan) main.Common.lat;
            }
      in
      let frame_bytes = Bytes.length (P.encode_frame (P.Branch_events st.batch)) in
      let counts =
        [
          ("wire.frame_bytes", float_of_int frame_bytes);
          ("wire.events_per_frame", float_of_int (List.length st.batch));
          ("batch.branches", float_of_int st.branches);
          ("artifact.bytes", float_of_int (Bytes.length st.image));
          ("pass.analyze.units", float_of_int units);
          ("dataflow.block_visits", float_of_int visits);
        ]
      in
      let layers, notes =
        if traced then traced_phase ~st ~main ~seconds ~limit ~before ~after
        else ([], [])
      in
      {
        Common.work_unit = "verdicts";
        main;
        setup_s;
        rss_mb;
        rss_of = "server child";
        counts;
        inputs_digest =
          Digest.to_hex
            (Digest.string
               (String.concat ","
                  (List.map
                     (fun (e : M.Event.t) -> string_of_int e.M.Event.pc)
                     st.batch)));
        layers;
        notes;
      })
