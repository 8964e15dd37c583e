(* compile-population: one operation compiles one seeded generator
   member the way [ipds compile] does — MiniC front end, the analysis
   and table passes (no pool), artifact encode, decode and validation
   of every flat image — under [options_for] its index.  No socket,
   interpreter or checker runs in the timed loop. *)

module Art = Ipds_artifact.Artifact
module S = Ipds_core.System
module M = Ipds_machine

(* Distinct members generated up front, about as many as a ten-second
   run compiles; the loop wraps around should it get through all. *)
let population_size = 2048

let population ~seed =
  Array.init population_size (fun index -> Ipds_gen.Gen.source ~seed ~index ())

(* Even-indexed members build with the default analysis options,
   odd-indexed ones with feasibility refinement on, so the workload
   prices both analysis paths. *)
let options_for index =
  let module A = Ipds_correlation.Analysis in
  if index mod 2 = 0 then A.default_options
  else { A.default_options with A.precision = A.precision_on }

let compile ~index source =
  let program =
    Spans.span "minic.compile" (fun () -> Ipds_minic.Minic.compile source)
  in
  let system =
    Spans.span "system.build" (fun () ->
        S.build ~options:(options_for index) program)
  in
  let bytes = Spans.span "artifact.encode" (fun () -> Art.to_bytes system) in
  let loaded = Spans.span "artifact.decode" (fun () -> Art.of_bytes bytes) in
  Spans.span "image.validate" (fun () ->
      List.iter
        (fun (_, (fi : S.func_info)) -> Ipds_core.Image.validate fi.S.image)
        loaded.S.funcs);
  bytes

let inputs ~seed index =
  M.Input_script.random ~seed:(Hashtbl.hash (seed, index, "member-run")) ()

(* The output check, run untimed after a member's first compile: the
   artifact re-encodes to the same bytes, and a benign run of the
   decoded program under its own checker raises no alarm.  In a traced
   run it also prices the runtime layers on the member: SHA-256 of the
   image, the interpreter with and without the inline checker, and the
   checker alone replaying the run's events. *)
let check_member ~seed ~traced index bytes =
  let system = Art.of_bytes bytes in
  let same = Bytes.equal (Art.to_bytes system) bytes in
  let run ?checker ?sink () =
    M.Interp.run system.S.program
      {
        M.Interp.default_config with
        inputs = inputs ~seed index;
        checker;
        sink;
        record_trace = false;
      }
  in
  let o = run ~checker:(S.new_checker system) () in
  if traced then begin
    ignore
      (Spans.span "sha256.image" (fun () -> Ipds_artifact.Sha256.hex_bytes bytes));
    Layers.interp_pair ~n:1
      ~unchecked:(fun () -> ignore (run ()))
      ~checked:(fun () -> ignore (run ~checker:(S.new_checker system) ()));
    let events = ref [] in
    ignore (run ~sink:(fun e -> events := e :: !events) ());
    let events = List.rev !events in
    let replay = S.new_checker system in
    Spans.span "checker.replay" (fun () ->
        M.Replay.feed_all replay ~defined:(S.mem system) events)
  end;
  (same && o.M.Interp.alarms = [], o.M.Interp.branches)

let run ~seed ~seconds ~limit ~traced =
  let seconds = if traced then seconds /. 2. else seconds in
  let pop, setup_s =
    Common.repeated_setup ~reps:(Common.setup_reps ~traced)
      ~setup:(fun () -> population ~seed)
      ~teardown:ignore
  in
  (* the digest of each member's first output: a member compiled again
     must give the same bytes *)
  let digests = Array.make population_size None in
  let art_bytes = ref 0 and units0 = ref 0 and visits0 = ref 0 in
  let counts = ref [] and branches = ref 0 in
  let phase ~traced =
    Common.closed_loop ~seconds ~limit
      ~op:(fun i ->
        if i = 0 then begin
          art_bytes := 0;
          units0 := Ipds_pass.Pass.units "analyze";
          visits0 := Common.visits ()
        end;
        let index = i mod population_size in
        compile ~index pop.(index))
      ~check:(fun i bytes ->
        let index = i mod population_size in
        if i < Common.prefix then art_bytes := !art_bytes + Bytes.length bytes;
        if i = Common.prefix - 1 then
          counts :=
            [
              ("artifact.bytes", float_of_int !art_bytes);
              ( "pass.analyze.units",
                float_of_int (Ipds_pass.Pass.units "analyze" - !units0) );
              ("dataflow.block_visits", float_of_int (Common.visits () - !visits0));
            ];
        let d = Digest.bytes bytes in
        match digests.(index) with
        | Some d0 -> if String.equal d d0 then Some 1. else None
        | None ->
            digests.(index) <- Some d;
            let ok, br = check_member ~seed ~traced index bytes in
            branches := !branches + br;
            if ok then Some 1. else None)
      ()
  in
  (* the peak covers compiling, not the population set-up left behind *)
  Gc.compact ();
  let rss_floor = Proc.rss_mb () and setup_peak = Proc.peak_rss_mb 0 in
  Proc.reset_peak_rss ();
  let main = phase ~traced:false in
  let rss_mb = Proc.peak_rss_mb 0 in
  let layers, notes =
    if not traced then ([], [])
    else begin
      (* the traced phase recompiles the same members from index 0 and
         prices the runtime layers in their checks *)
      Array.fill digests 0 population_size None;
      branches := 0;
      let before = Ipds_pass.Pass.report () in
      Spans.enabled := true;
      let tp = phase ~traced:true in
      Spans.enabled := false;
      let after = Ipds_pass.Pass.report () in
      let branches = !branches in
      let span_layers, span_notes = Layers.of_spans ~serve_ops:0 ~branches in
      let overhead, overhead_note = Common.phase_pair ~untraced:main ~traced:tp in
      ( span_layers
        @ Common.pass_seconds ~before ~after ~builds:tp.Common.attempted
        @ overhead,
        span_notes
        @ [
            overhead_note;
            Printf.sprintf
              "traced phase: %d programs; runtime layers priced on their \
               benign runs (%d branches)"
              tp.Common.attempted branches;
          ] )
    end
  in
  {
    Common.work_unit = "programs";
    main;
    setup_s;
    rss_mb;
    rss_of = "benchmark process";
    counts = !counts;
    inputs_digest =
      Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list pop)));
    layers;
    notes =
      Printf.sprintf
        "peak_rss_mb: VmHWM over the timed phase, reset after set-up (peak \
         %.1f MB) at %.1f MB resident"
        setup_peak rss_floor
      :: notes;
  }
