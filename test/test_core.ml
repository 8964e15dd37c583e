(* Tests for the IPDS core: collision-free hashing, table encoding and
   sizes, and the runtime checker's verify/update semantics. *)

module Mir = Ipds_mir
module Core = Ipds_core
module Corr = Ipds_correlation
module A = Ipds_artifact.Artifact

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- hash ---------- *)

let test_hash_empty () =
  let p = Core.Hash.find [] in
  check_int "empty space is one slot" 1 (Core.Hash.space p)

let test_hash_collision_free_known () =
  let pcs = List.init 13 (fun i -> 0x1000 + (4 * i * 3)) in
  let p = Core.Hash.find pcs in
  let slots = List.map (Core.Hash.apply p) pcs in
  check_int "no collisions" (List.length pcs)
    (List.length (List.sort_uniq compare slots));
  check "slots in range" true
    (List.for_all (fun s -> s >= 0 && s < Core.Hash.space p) slots)

let prop_hash_collision_free =
  let gen =
    QCheck2.Gen.(
      map
        (fun idxs ->
          List.sort_uniq compare (List.map (fun i -> 0x1000 + (4 * i)) idxs))
        (list_size (int_range 1 40) (int_range 0 2000)))
  in
  QCheck2.Test.make ~name:"hash search always collision-free" ~count:200 gen
    (fun pcs ->
      let p = Core.Hash.find pcs in
      let slots = List.map (Core.Hash.apply p) pcs in
      List.length (List.sort_uniq compare slots) = List.length pcs)

(* [Hash.find] is the first collision-free candidate of a direct scan
   (space sizes up from the smallest power of two holding every PC,
   then shift1, then shift2, each 1..12), and [attempts_for] is its
   1-based position in that scan. *)
let hash_matches_scan ~label pcs =
  let n = List.length pcs in
  let rec smallest bits = if 1 lsl bits >= n then bits else smallest (bits + 1) in
  let separates p =
    List.length (List.sort_uniq compare (List.map (Core.Hash.apply p) pcs)) = n
  in
  let rec scan bits k =
    let rec pairs s1 s2 k =
      if s1 > 12 then scan (bits + 1) k
      else if s2 > 12 then pairs (s1 + 1) 1 k
      else
        let p = Core.Hash.make ~shift1:s1 ~shift2:s2 ~space_bits:bits in
        if separates p then (p, k + 1) else pairs s1 (s2 + 1) (k + 1)
    in
    pairs 1 1 k
  in
  if n > 0 then begin
    let want, attempts = scan (max 1 (smallest 0)) 0 in
    if Core.Hash.find pcs <> want then
      Alcotest.failf "%s: Hash.find is not the first separating candidate" label;
    check_int (label ^ ": attempts") attempts (Core.Hash.attempts_for pcs)
  end

let test_hash_first_candidate () =
  let programs =
    List.map
      (fun w -> (w.Ipds_workloads.Workloads.name, Ipds_workloads.Workloads.program w))
      Ipds_workloads.Workloads.all
    @ List.init 200 (fun index ->
          (Printf.sprintf "gen 2006/%d" index, Ipds_gen.Gen.compile ~seed:2006 ~index ()))
  in
  List.iter
    (fun (name, program) ->
      let layout = Mir.Layout.make program in
      List.iter
        (fun (f : Mir.Func.t) ->
          hash_matches_scan ~label:(name ^ "/" ^ f.name) (Mir.Layout.branch_pcs layout f))
        program.Mir.Program.funcs)
    programs;
  let rng = Random.State.make [| 2006 |] in
  for trial = 0 to 299 do
    let spread = 1 + Random.State.int rng (if trial mod 2 = 0 then 64 else 1 lsl 20) in
    let pcs =
      List.sort_uniq compare
        (List.init (1 + Random.State.int rng 80) (fun _ ->
             0x1000 + (4 * Random.State.int rng spread)))
    in
    hash_matches_scan ~label:(Printf.sprintf "random %d" trial) (List.rev pcs)
  done

let test_hash_duplicates () =
  List.iter
    (fun pcs ->
      List.iter
        (fun (what, search) ->
          match search pcs with
          | (_ : int) -> Alcotest.failf "%s accepted a repeated PC word" what
          | exception Invalid_argument _ -> ())
        [
          ("find", fun pcs -> Core.Hash.space (Core.Hash.find pcs));
          ("attempts_for", Core.Hash.attempts_for);
        ])
    [ [ 0x1000; 0x1000 ]; [ 0x1000; 0x1004; 0x1008; 0x1004 ]; [ 0x1000; 0x1002 ] ]

(* ---------- tables & sizes ---------- *)

let figure4_system () =
  Core.System.build
    (Mir.Parser.program_of_string
       {|
func main() {
 var x
 var y
entry:
  r0 = input 0
  store y, r0
  r1 = input 0
  store x, r1
  jmp loop
loop:
  r2 = load y
  br lt r2, 5, bb2, bb5
bb2:
  r3 = load x
  br gt r3, 10, bb3, bb5
bb3:
  r4 = input 0
  store x, r4
  jmp bb5
bb5:
  r5 = load y
  br lt r5, 10, loop, exit
exit:
  ret 0
}
|})

let test_tables_structure () =
  let sys = figure4_system () in
  let t = Core.System.image sys "main" in
  check_int "three branches" 3 t.Core.Image.n_branches;
  check "bcv marks three slots" true
    (List.length (List.filter (Core.Image.checked t) (List.init t.Core.Image.space Fun.id))
    = 3);
  (* every BAT target slot must be BCV-marked (pruning invariant) *)
  check "bat targets all checked" true
    (Array.for_all
       (fun w -> Core.Image.checked t (Core.Image.node_slot w))
       t.Core.Image.nodes)

let test_sizes () =
  let sys = figure4_system () in
  let t = Core.System.image sys "main" in
  let s = Core.Image.sizes t in
  let space = Core.Hash.space (Core.Image.hash t) in
  check_int "bsv is 2 bits per slot" (2 * space) s.Core.Image.bsv_bits;
  check_int "bcv is 1 bit per slot" space s.Core.Image.bcv_bits;
  check "bat counts headers and nodes" true (s.Core.Image.bat_bits > 0);
  let stats = Core.System.size_stats sys in
  check "avg matches single function" true
    (int_of_float stats.Core.System.avg_bsv_bits = s.Core.Image.bsv_bits)

(* Every function's image against list tables built independently from
   the same analysis result: the same tables, and the same Figure 8
   accounting as the list walk.  11 built-ins and 200 seed-2006
   generated members, at both precisions. *)
let test_sizes_match_reference () =
  let on = { Corr.Analysis.default_options with precision = Corr.Analysis.precision_on } in
  let check_system label sys =
    List.iter
      (fun (name, tables) ->
        let image = Core.System.image sys name in
        check (label ^ "/" ^ name ^ ": image equals list tables") true
          (Tables_ref.equal_image tables image);
        if Core.Image.sizes image <> Tables_ref.sizes tables then
          Alcotest.failf "%s/%s: Image.sizes differs from the list accounting" label
            name)
      (Tables_ref.of_system sys)
  in
  List.iter
    (fun (plabel, options) ->
      List.iter
        (fun w ->
          check_system
            (w.Ipds_workloads.Workloads.name ^ "/" ^ plabel)
            (Core.System.build ~options (Ipds_workloads.Workloads.program w)))
        Ipds_workloads.Workloads.all;
      for index = 0 to 199 do
        check_system
          (Printf.sprintf "gen 2006/%d/%s" index plabel)
          (Core.System.build ~options (Ipds_gen.Gen.compile ~seed:2006 ~index ()))
      done)
    [ ("off", Corr.Analysis.default_options); ("on", on) ]

(* When the analysis lists a (branch, dir) edge twice, the last entry
   is the row, as in the list tables. *)
let test_last_edge_entry_wins () =
  let sys = figure4_system () in
  let info = Core.System.info sys "main" in
  let r = info.Core.System.result in
  match r.Corr.Analysis.edge_actions with
  | [] -> Alcotest.fail "figure 4 has no edge actions"
  | (edge, actions) :: _ ->
      let flipped =
        List.map
          (fun (tgt, a) ->
            ( tgt,
              match a with
              | Corr.Action.Set_taken -> Corr.Action.Set_not_taken
              | Corr.Action.Set_not_taken | Corr.Action.Set_unknown ->
                  Corr.Action.Set_taken ))
          actions
      in
      let r = { r with edge_actions = r.edge_actions @ [ (edge, flipped) ] } in
      let layout = sys.Core.System.layout in
      check "image equals list tables" true
        (Tables_ref.equal_image (Tables_ref.build ~layout r) (Core.Image.build ~layout r));
      check "image differs from the first entry's" false
        (Core.Image.build ~layout r = info.Core.System.image)

(* ---------- checker semantics ---------- *)

(* Build a tiny tables value by hand to drive the checker precisely. *)
let hand_tables () =
  let prog =
    Mir.Parser.program_of_string
      {|
func main() {
 var y
entry:
  r0 = load y
  br lt r0, 5, a, b
a:
  r1 = load y
  br lt r1, 10, c, d
b:
  ret 0
c:
  ret 1
d:
  ret 2
}
|}
  in
  Core.System.build prog

let test_checker_verify_update () =
  let sys = hand_tables () in
  let layout = sys.Core.System.layout in
  let pc iid = Mir.Layout.pc layout ~fname:"main" ~iid in
  (* iids: entry: 0 load,1 br; a: 2 load,3 br *)
  let checker = Core.System.new_checker sys in
  ignore (Core.Checker.on_call checker "main");
  check_int "depth 1" 1 (Core.Checker.depth checker);
  (* First branch taken: unknown matches anything, then BAT pins both. *)
  let v1 = Core.Checker.on_branch checker ~pc:(pc 1) ~taken:true in
  check "first check passes" false (Core.Checker.verdict_alarm v1);
  check "branch was checked" true (Core.Checker.verdict_checked v1);
  (* Second branch: y < 5 implies y < 10, expected taken.  Violate it. *)
  let v2 = Core.Checker.on_branch checker ~pc:(pc 3) ~taken:false in
  check "subsumption violation must alarm" true (Core.Checker.verdict_alarm v2);
  check "verdict carries expected status" true
    (Core.Status.equal (Core.Checker.verdict_expected v2) Core.Status.Taken);
  (match Core.Checker.last_alarm checker with
  | Some a ->
      check "alarm expected taken" true (Core.Status.equal a.Core.Checker.expected Core.Status.Taken);
      check "alarm actual not taken" false a.Core.Checker.actual_taken
  | None -> Alcotest.fail "subsumption violation must alarm");
  check_int "alarm recorded" 1 (Core.Checker.alarm_count checker);
  check "return pops" true (Core.Checker.on_return checker);
  check_int "depth 0" 0 (Core.Checker.depth checker)

let test_checker_consistent_run_clean () =
  let sys = hand_tables () in
  let layout = sys.Core.System.layout in
  let pc iid = Mir.Layout.pc layout ~fname:"main" ~iid in
  let checker = Core.System.new_checker sys in
  ignore (Core.Checker.on_call checker "main");
  ignore (Core.Checker.on_branch checker ~pc:(pc 1) ~taken:true);
  let v = Core.Checker.on_branch checker ~pc:(pc 3) ~taken:true in
  check "consistent directions pass" true (Core.Checker.verdict_ok v);
  check_int "no alarms" 0 (List.length (Core.Checker.alarms checker))

let test_checker_fresh_frame_per_call () =
  let sys = hand_tables () in
  let layout = sys.Core.System.layout in
  let pc iid = Mir.Layout.pc layout ~fname:"main" ~iid in
  let checker = Core.System.new_checker sys in
  ignore (Core.Checker.on_call checker "main");
  ignore (Core.Checker.on_branch checker ~pc:(pc 1) ~taken:true);
  (* A nested activation must not see the caller's statuses. *)
  ignore (Core.Checker.on_call checker "main");
  let v = Core.Checker.on_branch checker ~pc:(pc 3) ~taken:false in
  check "fresh frame starts unknown" false (Core.Checker.verdict_alarm v);
  ignore (Core.Checker.on_return checker);
  (* Back in the caller: the pinned status is still armed. *)
  let v2 = Core.Checker.on_branch checker ~pc:(pc 3) ~taken:false in
  check "caller status survived the call" true (Core.Checker.verdict_alarm v2)

let test_checker_unknown_matches_all () =
  check "unknown matches taken" true (Core.Status.matches Core.Status.Unknown true);
  check "unknown matches not-taken" true (Core.Status.matches Core.Status.Unknown false);
  check "taken matches taken" true (Core.Status.matches Core.Status.Taken true);
  check "taken rejects not-taken" false (Core.Status.matches Core.Status.Taken false);
  check "not-taken rejects taken" false (Core.Status.matches Core.Status.Not_taken true)

let test_checker_empty_stack_errors () =
  (* Hot-path protocol violations are typed results, not exceptions. *)
  let sys = hand_tables () in
  let checker = Core.System.new_checker sys in
  check "return on empty stack is rejected" false (Core.Checker.on_return checker);
  let v = Core.Checker.on_branch checker ~pc:0x40 ~taken:true in
  check "branch with no frame is a violation" true (Core.Checker.verdict_violation v);
  check "violation is not ok" false (Core.Checker.verdict_ok v);
  check_int "violation counts no branch" 0 (Core.Checker.branches_seen checker)

let test_checker_misc () =
  let sys = hand_tables () in
  let layout = sys.Core.System.layout in
  let pc iid = Mir.Layout.pc layout ~fname:"main" ~iid in
  let checker = Core.System.new_checker sys in
  ignore (Core.Checker.on_call checker "main");
  check_int "no branches seen" 0 (Core.Checker.branches_seen checker);
  ignore (Core.Checker.on_branch checker ~pc:(pc 1) ~taken:true);
  check_int "one branch seen" 1 (Core.Checker.branches_seen checker);
  let statuses = Core.Checker.current_statuses checker in
  check "some status is pinned" true
    (List.exists (fun (_, s) -> not (Core.Status.equal s Core.Status.Unknown)) statuses);
  (* alarm sequence numbers are commit indices *)
  let v = Core.Checker.on_branch checker ~pc:(pc 3) ~taken:false in
  check "expected alarm" true (Core.Checker.verdict_alarm v);
  (match Core.Checker.last_alarm checker with
  | Some a -> check_int "sequence is second commit" 1 a.Core.Checker.sequence
  | None -> Alcotest.fail "expected alarm")

let test_hash_dense_pcs () =
  (* consecutive branch PCs (every 4 bytes) are the worst case for weak
     mixing: the search must still succeed quickly *)
  let pcs = List.init 64 (fun i -> 0x4000 + (4 * i)) in
  let p = Core.Hash.find pcs in
  let slots = List.map (Core.Hash.apply p) pcs in
  check_int "dense pcs collision free" 64 (List.length (List.sort_uniq compare slots));
  check "attempts counted" true (Core.Hash.attempts_for pcs >= 1)

(* ---------- bitstream & binary images ---------- *)

let prop_bitstream_roundtrip =
  QCheck2.Test.make ~name:"bitstream round trip (widths 0-62, packed)"
    ~count:400 Gen.bitstream_ops (fun ops ->
      let w = Core.Bitstream.Writer.create () in
      List.iter
        (fun (Gen.Bits_field (width, v)) -> Core.Bitstream.Writer.push w ~width v)
        ops;
      let r = Core.Bitstream.Reader.of_bytes (Core.Bitstream.Writer.contents w) in
      List.for_all
        (fun (Gen.Bits_field (width, v)) -> Core.Bitstream.Reader.pull r ~width = v)
        ops)

let decode img = Core.Encode.decode_image img ~pos:0 ~len:(Bytes.length img)

let test_encode_roundtrip_workloads () =
  List.iter
    (fun w ->
      let sys = Core.System.build (Ipds_workloads.Workloads.program w) in
      List.iter
        (fun (_, (info : Core.System.func_info)) ->
          let img = Core.Encode.function_image ~entry_pc:info.entry_pc info.image in
          let entry_pc, decoded = decode img in
          check "entry pc survives" true (entry_pc = info.entry_pc);
          check "tables survive" true (decoded = info.image))
        sys.Core.System.funcs)
    Ipds_workloads.Workloads.all

(* The bytes the encoder writes: a byte-aligned header (16-bit name
   length, the name, 32-bit entry PC, three 8-bit hash parameters,
   16-bit branch and node counts), then exactly [payload_bits] packed
   bits, zero-padded to a byte. *)
let test_payload_matches_size_accounting () =
  List.iter
    (fun w ->
      let sys = Core.System.build (Ipds_workloads.Workloads.program w) in
      List.iter
        (fun (name, (info : Core.System.func_info)) ->
          let s = Core.Image.sizes info.image in
          let payload = Core.Encode.payload_bits info.image in
          check_int
            (w.Ipds_workloads.Workloads.name ^ " payload bits")
            (s.Core.Image.bcv_bits + s.Core.Image.bat_bits)
            payload;
          let header_bits = 16 + (8 * String.length name) + 32 + 24 + 16 + 16 in
          check_int
            (w.Ipds_workloads.Workloads.name ^ " image bytes")
            ((header_bits + payload + 7) / 8)
            (Bytes.length (Core.Encode.function_image ~entry_pc:info.entry_pc info.image)))
        sys.Core.System.funcs)
    Ipds_workloads.Workloads.all

let test_checker_from_image () =
  (* A checker running on reloaded tables must behave identically. *)
  let w = Ipds_workloads.Workloads.find "telnetd" in
  let program = Ipds_workloads.Workloads.program w in
  let sys = Core.System.build program in
  (* each function through its own table image, straight to the flat
     image the checker runs on *)
  let images =
    List.map
      (fun (name, (info : Core.System.func_info)) ->
        let _, image =
          decode (Core.Encode.function_image ~entry_pc:info.entry_pc info.image)
        in
        (name, image))
      sys.Core.System.funcs
  in
  let lookup name = List.assoc name images in
  let shipped = A.of_bytes (A.to_bytes sys) in
  let run checker =
    (Ipds_machine.Interp.run program
       {
         Ipds_machine.Interp.default_config with
         inputs = Ipds_machine.Input_script.random ~seed:4 ();
         checker = Some checker;
         tamper =
           Some
             {
               Ipds_machine.Tamper.at_step = 120;
               site =
                 Ipds_machine.Tamper.Mem_write
                   { model = Ipds_machine.Tamper.Stack_overflow; value = 1 };
               seed = 9;
             };
       })
      .Ipds_machine.Interp.alarms
  in
  let from_memory = run (Core.System.new_checker sys) in
  let from_image = run (Core.Checker.create ~lookup) in
  let from_artifact = run (Core.System.new_checker shipped) in
  check "identical alarms (function images)" true (from_memory = from_image);
  check "identical alarms (artifact)" true (from_memory = from_artifact)

let test_trace_log () =
  let sys = hand_tables () in
  let layout = sys.Core.System.layout in
  let pc iid = Mir.Layout.pc layout ~fname:"main" ~iid in
  let lines = ref [] in
  let log =
    Core.Trace_log.create
      ~lookup:(Core.System.image sys)
      ~out:(fun l -> lines := l :: !lines)
  in
  Core.Trace_log.on_call log "main";
  ignore (Core.Trace_log.on_branch log ~pc:(pc 1) ~taken:true);
  ignore (Core.Trace_log.on_branch log ~pc:(pc 3) ~taken:false);
  Core.Trace_log.on_return log;
  let text = String.concat "\n" (List.rev !lines) in
  let contains needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.equal (String.sub text i nn) needle || go (i + 1))
    in
    go 0
  in
  check "logs the call" true (contains "call main");
  check "logs the alarm" true (contains "ALARM");
  check "logs expected status" true (contains "expected=T");
  check "logs the return" true (contains "ret  main");
  check_int "alarm recorded in underlying checker" 1
    (List.length (Core.Checker.alarms (Core.Trace_log.checker log)))

let test_encode_malformed () =
  check "truncated image rejected" true
    (try
       ignore (decode (Bytes.make 2 '\255'));
       false
     with Core.Bitstream.Past_end -> true);
  check "empty image rejected" true
    (try
       ignore (decode Bytes.empty);
       false
     with Core.Bitstream.Past_end -> true)

(* ---------- oracle equivalence ----------

   A reference checker interpreting Analysis.result directly (keyed by
   instruction ids, no hashing, no bit packing, no table pruning beyond
   what the result carries).  The production path (Tables + Hash +
   Checker) must produce the same alarm sequence on any run, tampered or
   not. *)

module Oracle = struct
  module Corr = Ipds_correlation

  type frame = {
    result : Corr.Analysis.result;
    status : (int, Core.Status.t) Hashtbl.t;
  }

  type t = {
    results : (string * Corr.Analysis.result) list;
    layout : Mir.Layout.t;
    mutable stack : frame list;
    mutable alarms : int list;  (* commit indices *)
    mutable commits : int;
  }

  let create program =
    {
      results = Corr.Analysis.analyze_program program;
      layout = Mir.Layout.make program;
      stack = [];
      alarms = [];
      commits = 0;
    }

  let apply frame actions =
    List.iter
      (fun (tgt, a) -> Hashtbl.replace frame.status tgt (Core.Status.of_action a))
      actions

  let on_call t callee =
    match List.assoc_opt callee t.results with
    | None -> ()
    | Some result ->
        let frame = { result; status = Hashtbl.create 8 } in
        apply frame result.Corr.Analysis.entry_actions;
        t.stack <- frame :: t.stack

  let on_return t =
    match t.stack with
    | [] -> ()
    | _ :: rest -> t.stack <- rest

  let on_branch t ~pc ~taken =
    match t.stack with
    | [] -> ()
    | frame :: _ ->
        let iid =
          match Mir.Layout.func_of_pc t.layout pc with
          | Some (_, iid) -> iid
          | None -> -1
        in
        let seq = t.commits in
        t.commits <- t.commits + 1;
        (if List.mem iid frame.result.Corr.Analysis.checked then
           let expected =
             Option.value
               (Hashtbl.find_opt frame.status iid)
               ~default:Core.Status.Unknown
           in
           if not (Core.Status.matches expected taken) then
             t.alarms <- seq :: t.alarms);
        apply frame (Corr.Analysis.actions_for frame.result (iid, taken))
end

let prop_encode_roundtrip_random =
  QCheck2.Test.make ~name:"binary image round trips on arbitrary programs"
    ~count:80 Gen.mir_program (fun p ->
      let sys = Core.System.build p in
      let shipped = A.of_bytes (A.to_bytes sys) in
      List.length shipped.Core.System.funcs = List.length sys.Core.System.funcs
      && List.for_all
           (fun (name, (info : Core.System.func_info)) ->
             let pc, image =
               decode (Core.Encode.function_image ~entry_pc:info.entry_pc info.image)
             in
             let s = Core.System.info shipped name in
             pc = info.entry_pc
             && image = info.image
             && s.Core.System.entry_pc = info.entry_pc
             && s.Core.System.image = info.image)
           sys.Core.System.funcs)

let prop_checker_matches_oracle =
  QCheck2.Test.make ~name:"table-driven checker matches the analysis oracle"
    ~count:120
    QCheck2.Gen.(tup3 Gen.minic_program (int_bound 1000) (int_bound 100000))
    (fun (program, seed, attack_bits) ->
      let sys = Core.System.build program in
      let tamper =
        if attack_bits mod 3 = 0 then None
        else
          Some
            {
              Ipds_machine.Tamper.at_step = 1 + (attack_bits mod 400);
              site =
                Ipds_machine.Tamper.Mem_write
                  {
                    model = Ipds_machine.Tamper.Arbitrary_write;
                    value = attack_bits mod 256;
                  };
              seed = attack_bits;
            }
      in
      (* production run *)
      let checker = Core.System.new_checker sys in
      let o1 =
        Ipds_machine.Interp.run program
          {
            Ipds_machine.Interp.default_config with
            max_steps = 3000;
            inputs = Ipds_machine.Input_script.random ~seed ();
            checker = Some checker;
          }
      in
      ignore o1;
      let o1_alarms =
        List.map (fun (a : Core.Checker.alarm) -> a.sequence) (Core.Checker.alarms checker)
      in
      (* oracle run, driven by events *)
      let oracle = Oracle.create program in
      let sink (e : Ipds_machine.Event.t) =
        match e.Ipds_machine.Event.kind with
        | Ipds_machine.Event.Call { callee } ->
            if Mir.Program.is_defined program callee then Oracle.on_call oracle callee
        | Ipds_machine.Event.Ret -> Oracle.on_return oracle
        | Ipds_machine.Event.Branch { taken; _ } ->
            Oracle.on_branch oracle ~pc:e.Ipds_machine.Event.pc ~taken
        | Ipds_machine.Event.Alu | Ipds_machine.Event.Load _
        | Ipds_machine.Event.Store _ | Ipds_machine.Event.Jump _
        | Ipds_machine.Event.Input_read | Ipds_machine.Event.Output_write _
        | Ipds_machine.Event.Fault_inject _ ->
            ()
      in
      let _o2 =
        Ipds_machine.Interp.run program
          {
            Ipds_machine.Interp.default_config with
            max_steps = 3000;
            inputs = Ipds_machine.Input_script.random ~seed ();
            sink = Some sink;
          }
      in
      ignore tamper;
      (* both runs above were benign; now the tampered pair *)
      match tamper with
      | None -> o1_alarms = List.rev oracle.Oracle.alarms
      | Some plan ->
          let checker2 = Core.System.new_checker sys in
          let _ =
            Ipds_machine.Interp.run program
              {
                Ipds_machine.Interp.default_config with
                max_steps = 3000;
                inputs = Ipds_machine.Input_script.random ~seed ();
                checker = Some checker2;
                tamper = Some plan;
              }
          in
          let prod =
            List.map
              (fun (a : Core.Checker.alarm) -> a.sequence)
              (Core.Checker.alarms checker2)
          in
          let oracle2 = Oracle.create program in
          let sink2 (e : Ipds_machine.Event.t) =
            match e.Ipds_machine.Event.kind with
            | Ipds_machine.Event.Call { callee } ->
                if Mir.Program.is_defined program callee then
                  Oracle.on_call oracle2 callee
            | Ipds_machine.Event.Ret -> Oracle.on_return oracle2
            | Ipds_machine.Event.Branch { taken; _ } ->
                Oracle.on_branch oracle2 ~pc:e.Ipds_machine.Event.pc ~taken
            | Ipds_machine.Event.Alu | Ipds_machine.Event.Load _
            | Ipds_machine.Event.Store _ | Ipds_machine.Event.Jump _
            | Ipds_machine.Event.Input_read | Ipds_machine.Event.Output_write _
            | Ipds_machine.Event.Fault_inject _ ->
                ()
          in
          let _ =
            Ipds_machine.Interp.run program
              {
                Ipds_machine.Interp.default_config with
                max_steps = 3000;
                inputs = Ipds_machine.Input_script.random ~seed ();
                sink = Some sink2;
                tamper = Some plan;
              }
          in
          prod = List.rev oracle2.Oracle.alarms)

let () =
  Alcotest.run "core"
    [
      ( "hash",
        [
          Alcotest.test_case "empty" `Quick test_hash_empty;
          Alcotest.test_case "collision free" `Quick test_hash_collision_free_known;
          QCheck_alcotest.to_alcotest prop_hash_collision_free;
          Alcotest.test_case "first candidate in scan order" `Quick
            test_hash_first_candidate;
          Alcotest.test_case "repeated PCs refused" `Quick test_hash_duplicates;
        ] );
      ( "tables",
        [
          Alcotest.test_case "structure" `Quick test_tables_structure;
          Alcotest.test_case "sizes" `Quick test_sizes;
          Alcotest.test_case "sizes match the list accounting" `Quick
            test_sizes_match_reference;
          Alcotest.test_case "last edge entry wins" `Quick test_last_edge_entry_wins;
        ] );
      ( "encode",
        [
          QCheck_alcotest.to_alcotest prop_bitstream_roundtrip;
          Alcotest.test_case "workload tables round trip" `Quick
            test_encode_roundtrip_workloads;
          Alcotest.test_case "payload matches size accounting" `Quick
            test_payload_matches_size_accounting;
          Alcotest.test_case "checker from image" `Quick test_checker_from_image;
          QCheck_alcotest.to_alcotest prop_checker_matches_oracle;
          QCheck_alcotest.to_alcotest prop_encode_roundtrip_random;
          Alcotest.test_case "trace log" `Quick test_trace_log;
          Alcotest.test_case "malformed image" `Quick test_encode_malformed;
        ] );
      ( "checker",
        [
          Alcotest.test_case "verify/update" `Quick test_checker_verify_update;
          Alcotest.test_case "consistent run" `Quick test_checker_consistent_run_clean;
          Alcotest.test_case "fresh frame" `Quick test_checker_fresh_frame_per_call;
          Alcotest.test_case "status matching" `Quick test_checker_unknown_matches_all;
          Alcotest.test_case "empty stack" `Quick test_checker_empty_stack_errors;
          Alcotest.test_case "misc accessors" `Quick test_checker_misc;
          Alcotest.test_case "dense pcs" `Quick test_hash_dense_pcs;
        ] );
    ]
