(* serve-session: one operation is one [ipds check-remote]-shaped
   session — connect, push the program's image, stream a fresh
   interpreter run through [Client.trace] while the same run is checked
   inline, finish, close.  The program is drawn by seed from all eleven
   built-ins, more than the server's eight cache slots, so some loads
   miss and the server decodes the image again; a seeded quarter of the
   sessions run under a memory-tamper plan, so replies carry alarms.
   Frames are small and per-session costs dominate: connect/accept,
   SHA-256 of every pushed image, the cache, artifact decode on a miss
   and the interpreter. *)

module C = Ipds_serve.Client
module P = Ipds_serve.Protocol
module M = Ipds_machine
module S = Ipds_core.System
module W = Ipds_workloads.Workloads

type entry = {
  w : W.t;
  program : Ipds_mir.Program.t;
  system : S.t;
  image : Bytes.t;
  steps : int;  (* a benign run's length, to place tamper plans *)
}

type draw = { entry : entry; inputs_seed : int; tamper : M.Tamper.plan option }

let catalogue ~seed () =
  Array.of_list
    (List.map
       (fun w ->
         let program, system, image = Common.compile_builtin w in
         let o =
           M.Interp.run program
             {
               M.Interp.default_config with
               inputs = M.Input_script.random ~seed:(Hashtbl.hash (seed, w.W.name)) ();
               record_trace = false;
             }
         in
         { w; program; system; image; steps = o.M.Interp.steps })
       W.all)

let draw ~seed cat i =
  let rng = Random.State.make [| seed; i; 0x5e55 |] in
  let entry = cat.(Random.State.int rng (Array.length cat)) in
  let inputs_seed = Random.State.bits rng in
  let tamper =
    if Random.State.int rng 4 <> 0 then None
    else begin
      let lo = max 1 (entry.steps / 5) in
      let at_step = lo + Random.State.int rng (max 1 (entry.steps - lo)) in
      let value = Random.State.int rng 256 in
      let model =
        match W.tamper_model entry.w with
        | `Stack_overflow -> M.Tamper.Stack_overflow
        | `Arbitrary_write -> M.Tamper.Arbitrary_write
      in
      Some
        {
          M.Tamper.at_step;
          site = M.Tamper.Mem_write { model; value };
          seed = Random.State.bits rng;
        }
    end
  in
  { entry; inputs_seed; tamper }

let interp ?checker ?sink d =
  M.Interp.run d.entry.program
    {
      M.Interp.default_config with
      inputs = M.Input_script.random ~seed:d.inputs_seed ();
      checker;
      sink;
      tamper = d.tamper;
      record_trace = false;
    }

let session sock d =
  let client = C.connect (`Unix sock) in
  Fun.protect
    ~finally:(fun () -> C.close client)
    (fun () ->
      match C.load_image client ~name:d.entry.w.W.name d.entry.image with
      | Error _ -> None
      | Ok cached -> (
          match C.trace client with
          | Error _ -> None
          | Ok tr -> (
              let checker = S.new_checker d.entry.system in
              ignore (interp ~checker ~sink:tr.C.sink d);
              match tr.C.finish () with
              | Error _ -> None
              | Ok (remote, _) ->
                  Some
                    {
                      Wire.cached;
                      remote = Common.render remote;
                      local = Common.render (Ipds_core.Checker.alarms checker);
                    })))

let traced_session sock d =
  Wire.session sock ~name:d.entry.w.W.name ~image:d.entry.image
    ~system:d.entry.system ~interp:(fun ~checker ~sink ->
      ignore (interp ~checker ~sink d))

type tally = {
  mutable hits : int;
  mutable loads : int;
  mutable alarms : int;  (* over the first [Common.prefix] sessions *)
  mutable alarmed : int;  (* sessions with alarms, over all *)
  mutable tampered : int;
}

let run ~seed ~seconds ~limit ~traced =
  let seconds = if traced then seconds /. 2. else seconds in
  if traced then Spans.enabled := true;
  let before = Ipds_pass.Pass.report () in
  let units0 = Ipds_pass.Pass.units "analyze" and visits0 = Common.visits () in
  let reps = Common.setup_reps ~traced in
  let (cat, server), setup_s =
    Common.repeated_setup ~reps
      ~setup:(fun () ->
        let cat = catalogue ~seed () in
        (cat, Proc.spawn ()))
      ~teardown:(fun (_, s) -> Proc.stop s)
  in
  let after = Ipds_pass.Pass.report () in
  let builds = reps * Array.length cat in
  let units = (Ipds_pass.Pass.units "analyze" - units0) / reps in
  let visits = (Common.visits () - visits0) / reps in
  Spans.enabled := false;
  let draws = Hashtbl.create 4096 in
  let draw i =
    match Hashtbl.find_opt draws i with
    | Some d -> d
    | None ->
        let d = draw ~seed cat i in
        Hashtbl.replace draws i d;
        d
  in
  let tally () = { hits = 0; loads = 0; alarms = 0; alarmed = 0; tampered = 0 } in
  let counted t i (o : Wire.outcome) =
    if Option.is_some (draw i).tamper then t.tampered <- t.tampered + 1;
    if o.Wire.remote <> [] then t.alarmed <- t.alarmed + 1;
    if i < Common.prefix then begin
      t.loads <- t.loads + 1;
      if o.Wire.cached then t.hits <- t.hits + 1;
      t.alarms <- t.alarms + List.length o.Wire.remote
    end;
    if o.Wire.remote = o.Wire.local then Some 1. else None
  in
  let image_bytes =
    List.fold_left ( + ) 0
      (List.init Common.prefix (fun i -> Bytes.length (draw i).entry.image))
  in
  let t_main = tally () in
  let main, rss_mb =
    Fun.protect
      ~finally:(fun () -> Proc.stop server)
      (fun () ->
        let pid = server.Proc.pid in
        let main =
          Common.closed_loop ~child:pid ~seconds ~limit
            ~op:(fun i -> session server.Proc.sock (draw i))
            ~check:(fun i r -> Option.bind r (counted t_main i))
            ()
        in
        (main, Proc.peak_rss_mb pid))
  in
  let counts =
    [
      ("cache.hits", float_of_int t_main.hits);
      ("cache.misses", float_of_int (t_main.loads - t_main.hits));
      ("alarms", float_of_int t_main.alarms);
      ("artifact.bytes", float_of_int image_bytes);
      ("pass.analyze.units", float_of_int units);
      ("dataflow.block_visits", float_of_int visits);
    ]
  in
  let layers, notes =
    if not traced then ([], [])
    else begin
      (* a fresh server, so the traced phase sees the same cache history *)
      Spans.enabled := true;
      let t_tr = tally () in
      let kept = ref [] in
      let tp =
        Proc.with_server (fun server ->
            Common.closed_loop ~child:server.Proc.pid ~seconds ~limit
              ~op:(fun i -> traced_session server.Proc.sock (draw i))
              ~check:(fun i (r, exchanges) ->
                kept := (i, List.map Wire.compact exchanges) :: !kept;
                Option.bind r (counted t_tr i))
              ())
      in
      (* the server's share of each wait, and the interpreter with and
         without the inline checker, after the timed phase *)
      let sent = ref 0 and frames = ref 0 and frame_events = ref 0 in
      let branches = ref 0 in
      List.iter
        (fun (i, exchanges) ->
          let d = draw i in
          Spans.current_op := i;
          let w =
            Wire.replay_session ~system:d.entry.system (List.map Wire.expand exchanges)
          in
          branches := !branches + w.Wire.branches;
          if i < Common.prefix then begin
            sent := !sent + w.Wire.sent_bytes;
            frames := !frames + w.Wire.frames;
            frame_events := !frame_events + w.Wire.events
          end;
          Spans.current_op := -1;
          Layers.interp_pair ~n:1
            ~unchecked:(fun () -> ignore (interp d))
            ~checked:(fun () ->
              ignore (interp ~checker:(S.new_checker d.entry.system) d)))
        (List.rev !kept);
      Spans.enabled := false;
      let span_layers, span_notes =
        Layers.of_spans ~serve_ops:tp.Common.attempted ~branches:!branches
      in
      let hit_ratio =
        Stats.ratio ~num:(float_of_int t_tr.hits) ~den:(float_of_int t_tr.loads)
          ~base:(Printf.sprintf "loads of the first %d sessions" Common.prefix)
      in
      let overhead, overhead_note = Common.phase_pair ~untraced:main ~traced:tp in
      ( span_layers
        @ [
            ("wire.frame_bytes", float_of_int !sent /. float_of_int Common.prefix);
            ( "wire.events_per_frame",
              if !frames = 0 then 0.
              else float_of_int !frame_events /. float_of_int !frames );
            ("cache.hit_ratio", Stats.ratio_value hit_ratio);
          ]
        @ Common.pass_seconds ~before ~after ~builds
        @ overhead,
        span_notes
        @ [
            overhead_note;
            "cache.hit_ratio " ^ Stats.ratio_to_string hit_ratio;
            Printf.sprintf
              "wire.frame_bytes: request bytes per session over the first %d; \
               wire.events_per_frame over their %d event frames"
              Common.prefix !frames;
          ] )
    end
  in
  {
    Common.work_unit = "sessions";
    main;
    setup_s;
    rss_mb;
    rss_of = "server child";
    counts;
    inputs_digest =
      Digest.to_hex
        (Digest.string
           (String.concat ";"
              (List.init Common.prefix (fun i ->
                   let d = draw i in
                   Printf.sprintf "%s/%d/%b" d.entry.w.W.name d.inputs_seed
                     (Option.is_some d.tamper)))));
    layers;
    notes =
      Printf.sprintf "sessions: %d tampered, %d with alarms, of %d" t_main.tampered
        t_main.alarmed main.Common.attempted
      :: notes;
  }
