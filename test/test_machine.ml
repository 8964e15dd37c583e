(* Tests for the machine: interpreter semantics, pointer provenance,
   externals, faults, input scripts, and tamper injection. *)

module Mir = Ipds_mir
module M = Ipds_machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run ?(inputs = M.Input_script.constant 0) ?tamper src =
  M.Interp.run
    (Mir.Parser.program_of_string src)
    { M.Interp.default_config with inputs; tamper }

let outputs o = o.M.Interp.outputs

let exit_code o =
  match o.M.Interp.reason with
  | M.Interp.Exited (M.Value.Int n) -> Some n
  | M.Interp.Exited (M.Value.Ptr _) | M.Interp.Halted | M.Interp.Fault _
  | M.Interp.Out_of_steps | M.Interp.Trapped _ ->
      None

let test_arithmetic () =
  let o =
    run
      {|
func main() {
entry:
  r0 = 6
  r1 = mul r0, 7
  r2 = sub r1, 2
  r3 = div r2, 4
  output r3
  r4 = rem r2, 7
  output r4
  ret r3
}
|}
  in
  check "outputs" true (outputs o = [ 10; 5 ]);
  check "exit" true (exit_code o = Some 10)

let test_memory_and_arrays () =
  let o =
    run
      {|
func main() {
 var x
 var a[3]
entry:
  store x, 42
  store a[0], 1
  store a[1], 2
  store a[2], 3
  r0 = load x
  output r0
  r1 = load a[1]
  output r1
  r2 = load a[4]
  output r2
  ret 0
}
|}
  in
  (* index 4 wraps to 1 *)
  check "memory semantics" true (outputs o = [ 42; 2; 2 ])

let test_pointers () =
  let o =
    run
      {|
func main() {
 var a[4]
entry:
  store a[2], 99
  r0 = addr a[0]
  r1 = add r0, 2
  r2 = load [r1]
  output r2
  r3 = sub r1, r0
  output r3
  ret 0
}
|}
  in
  check "pointer arithmetic and deref" true (outputs o = [ 99; 2 ])

let test_deref_non_pointer_faults () =
  let o =
    run
      {|
func main() {
entry:
  r0 = 12345
  r1 = load [r0]
  ret r1
}
|}
  in
  (match o.M.Interp.reason with
  | M.Interp.Fault _ -> ()
  | M.Interp.Exited _ | M.Interp.Halted | M.Interp.Out_of_steps
  | M.Interp.Trapped _ ->
      Alcotest.fail "integer deref must fault")

let test_dangling_pointer_faults () =
  let o =
    run
      {|
func leak() {
 var local
start:
  r0 = addr local[0]
  ret r0
}
func main() {
entry:
  r0 = call leak()
  r1 = load [r0]
  ret r1
}
|}
  in
  (match o.M.Interp.reason with
  | M.Interp.Fault _ -> ()
  | M.Interp.Exited _ | M.Interp.Halted | M.Interp.Out_of_steps
  | M.Interp.Trapped _ ->
      Alcotest.fail "dangling deref must fault")

let test_calls_and_recursion () =
  let o =
    run
      {|
func fact(r0) {
start:
  br le r0, 1, base, rec
base:
  ret 1
rec:
  r1 = sub r0, 1
  r2 = call fact(r1)
  r3 = mul r0, r2
  ret r3
}
func main() {
entry:
  r0 = call fact(6)
  output r0
  ret 0
}
|}
  in
  check "recursion" true (outputs o = [ 720 ])

let test_out_of_steps () =
  let p =
    Mir.Parser.program_of_string
      {|
func main() {
entry:
  jmp entry
}
|}
  in
  let o = M.Interp.run p { M.Interp.default_config with max_steps = 100 } in
  check "spin is capped" true (o.M.Interp.reason = M.Interp.Out_of_steps);
  check_int "exact cap" 100 o.M.Interp.steps

let test_halt () =
  let o = run {|
func main() {
entry:
  halt
}
|} in
  check "halt" true (o.M.Interp.reason = M.Interp.Halted)

let test_externs () =
  let o =
    run
      ~inputs:(M.Input_script.of_lists [ (0, [ 5; 6 ]); (1, [ 7; 8; 9 ]) ])
      {|
extern memset writes(0)
extern memcpy writes(0)
extern strlen pure
extern checksum pure
extern recv writes(0)
extern read_line writes(0)
func main() {
 var a[4]
 var b[4]
entry:
  r0 = addr a[0]
  r1 = call memset(r0, 3, 4)
  r2 = call checksum(r0, 4)
  output r2
  store a[2], 0
  r3 = call strlen(r0)
  output r3
  r4 = addr b[0]
  r5 = call memcpy(r4, r0, 4)
  r6 = load b[1]
  output r6
  r7 = call recv(r4, 2)
  output r7
  r8 = load b[0]
  output r8
  r9 = call read_line(r4, 1)
  r10 = load b[0]
  output r10
  ret 0
}
|}
  in
  (* memset a = [3;3;3;3] -> checksum 12; a[2]=0 -> strlen 2; memcpy b=a;
     b[1]=3; recv fills b[0..1] from channel 1 -> 7, returns 2; read_line
     fills b[0] from channel 0 -> 5 *)
  check "extern semantics" true (outputs o = [ 12; 2; 3; 2; 7; 5 ])

let test_strcmp () =
  let o =
    run
      {|
extern strcmp pure
func main() {
 var a[3]
 var b[3]
entry:
  store a[0], 5
  store a[1], 0
  store b[0], 5
  store b[1], 0
  r0 = addr a[0]
  r1 = addr b[0]
  r2 = call strcmp(r0, r1)
  output r2
  store b[0], 9
  r3 = call strcmp(r0, r1)
  output r3
  ret 0
}
|}
  in
  check "strcmp equal then less" true (outputs o = [ 0; -1 ])

let test_input_script () =
  let s = M.Input_script.of_lists [ (0, [ 1; 2 ]); (3, [ 9 ]) ] in
  check_int "channel order" 1 (M.Input_script.next s ~channel:0);
  check_int "channel order 2" 2 (M.Input_script.next s ~channel:0);
  check_int "exhausted pads zero" 0 (M.Input_script.next s ~channel:0);
  check_int "other channel" 9 (M.Input_script.next s ~channel:3);
  check_int "unknown channel" 0 (M.Input_script.next s ~channel:7);
  let r1 = M.Input_script.random ~seed:5 () in
  let r2 = M.Input_script.random ~seed:5 () in
  check "random is deterministic per seed" true
    (List.init 10 (fun _ -> M.Input_script.next r1 ~channel:0)
    = List.init 10 (fun _ -> M.Input_script.next r2 ~channel:0))

let tamper_src =
  {|
func main() {
 var flag
 var pad[3]
entry:
  store flag, 1
  jmp spin
spin:
  r0 = load flag
  output r0
  br eq r0, 1, spin2, exit
spin2:
  r1 = load flag
  output r1
  br eq r1, 1, fin, exit
fin:
  ret 0
exit:
  ret 9
}
|}

let test_tamper_deterministic () =
  let plan =
    {
      M.Tamper.at_step = 3;
      site = M.Tamper.Mem_write { model = M.Tamper.Stack_overflow; value = 77 };
      seed = 11;
    }
  in
  let o1 = run ~tamper:plan tamper_src in
  let o2 = run ~tamper:plan tamper_src in
  check "same plan, same injection" true (o1.M.Interp.injection = o2.M.Interp.injection);
  check "same outputs" true (outputs o1 = outputs o2)

let test_tamper_noop_when_same_value () =
  (* value 1 written over flag=1 is a no-op: injection must be None when
     the chosen victim already holds the value; sweep seeds to find a
     flag hit. *)
  let hit = ref false in
  for seed = 0 to 40 do
    let plan =
      {
        M.Tamper.at_step = 3;
        site = M.Tamper.Mem_write { model = M.Tamper.Stack_overflow; value = 1 };
        seed;
      }
    in
    let o = run ~tamper:plan tamper_src in
    match o.M.Interp.injection with
    | Some (M.Tamper.Tampered_cell i)
      when String.equal i.var.Mir.Var.name "flag" ->
        hit := true
    | Some _ | None -> ()
  done;
  check "tampering flag with its own value never counts" false !hit

let test_tamper_changes_behavior () =
  (* find a seed that flips flag and watch the control flow change *)
  let benign = run tamper_src in
  let flipped = ref false in
  for seed = 0 to 40 do
    if not !flipped then begin
      let plan =
        {
          M.Tamper.at_step = 3;
          site = M.Tamper.Mem_write { model = M.Tamper.Stack_overflow; value = 0 };
          seed;
        }
      in
      let o = run ~tamper:plan tamper_src in
      match o.M.Interp.injection with
      | Some (M.Tamper.Tampered_cell i)
        when String.equal i.var.Mir.Var.name "flag" ->
          flipped := true;
          check "exit code changed" true (exit_code o = Some 9);
          check "control flow changed" true (M.Interp.control_flow_changed benign o)
      | Some _ | None -> ()
    end
  done;
  check "found a flag hit" true !flipped

let test_zero_fault_plan_is_identity () =
  (* A plan that never fires must leave the run byte-identical to
     running with no plan at all, for every site variant — the typed
     tamper sites cannot perturb the zero-fault pipeline. *)
  let p = Ipds_workloads.Workloads.(program (find "sysklogd")) in
  let sites =
    [
      M.Tamper.Mem_write { model = M.Tamper.Arbitrary_write; value = 7 };
      M.Tamper.Mem_write_at { addr = 3; value = 7 };
      M.Tamper.Cond_flip;
      M.Tamper.Insn_skip;
    ]
  in
  for seed = 0 to 2 do
    let outcome tamper =
      M.Interp.run p
        {
          M.Interp.default_config with
          inputs = M.Input_script.random ~seed ();
          tamper;
        }
    in
    let plain = outcome None in
    List.iter
      (fun site ->
        let armed =
          outcome (Some { M.Tamper.at_step = max_int; site; seed = 1 })
        in
        check "zero-fault run identical to plan-free run" true (plain = armed))
      sites
  done

let test_trace_recording () =
  let o = run tamper_src in
  check_int "two branches committed" 2 (List.length o.M.Interp.branch_trace);
  check_int "branch counter agrees" 2 o.M.Interp.branches

(* ---------- memory module ---------- *)

let memory_program () =
  Mir.Parser.program_of_string
    {|
global g
global garr[3]
func callee() {
 var inner
start:
  ret
}
func main() {
 var x
 var buf[2]
entry:
  ret
}
|}

let test_memory_frames () =
  let p = memory_program () in
  let mem = M.Memory.create p in
  check_int "no frames yet" 0 (M.Memory.depth mem);
  let main = Mir.Program.find_func_exn p "main" in
  let callee = Mir.Program.find_func_exn p "callee" in
  let f1 = M.Memory.push_frame mem main in
  let f2 = M.Memory.push_frame mem callee in
  check_int "two frames" 2 (M.Memory.depth mem);
  check "both alive" true (M.Memory.frame_alive mem f1 && M.Memory.frame_alive mem f2);
  check_int "innermost is callee" f2 (M.Memory.active_frame mem);
  M.Memory.pop_frame mem;
  check "popped frame dead" false (M.Memory.frame_alive mem f2);
  check "outer frame alive" true (M.Memory.frame_alive mem f1);
  check "globals pseudo-frame always alive" true (M.Memory.frame_alive mem 0)

let test_memory_load_store () =
  let p = memory_program () in
  let mem = M.Memory.create p in
  let main = Mir.Program.find_func_exn p "main" in
  let fid = M.Memory.push_frame mem main in
  let x = List.find (fun (v : Mir.Var.t) -> v.name = "x") main.Mir.Func.locals in
  let g = List.find (fun (v : Mir.Var.t) -> v.name = "g") p.Mir.Program.globals in
  check "store local" true (M.Memory.store mem ~frame:fid x 0 (M.Value.Int 42));
  check "load local" true (M.Memory.load mem ~frame:fid x 0 = Some (M.Value.Int 42));
  check "store global" true (M.Memory.store mem ~frame:0 g 0 (M.Value.Int 7));
  check "load global" true (M.Memory.load mem ~frame:0 g 0 = Some (M.Value.Int 7));
  (* globals are not in frames, locals not in the global segment *)
  check "global var unknown in frame" true (M.Memory.load mem ~frame:fid g 0 = None);
  check "local var unknown in globals" true (M.Memory.load mem ~frame:0 x 0 = None);
  M.Memory.pop_frame mem;
  check "load from dead frame" true (M.Memory.load mem ~frame:fid x 0 = None);
  check "store to dead frame" false (M.Memory.store mem ~frame:fid x 0 M.Value.zero)

let test_memory_live_cells () =
  let p = memory_program () in
  let mem = M.Memory.create p in
  let main = Mir.Program.find_func_exn p "main" in
  let callee = Mir.Program.find_func_exn p "callee" in
  ignore (M.Memory.push_frame mem main);
  ignore (M.Memory.push_frame mem callee);
  let actives = M.Memory.live_cells mem ~scope:`Active_locals in
  check_int "active frame has one cell (inner)" 1 (List.length actives);
  let anywhere = M.Memory.live_cells mem ~scope:`Anywhere in
  (* g(1) + garr(3) + inner(1) + x(1) + buf(2) = 8 *)
  check_int "anywhere covers globals and both frames" 8 (List.length anywhere)

let test_addresses_disjoint () =
  let p = memory_program () in
  let mem = M.Memory.create p in
  let main = Mir.Program.find_func_exn p "main" in
  let fid = M.Memory.push_frame mem main in
  let cells = M.Memory.live_cells mem ~scope:`Anywhere in
  let addrs =
    List.map (fun (frame, v, i) -> M.Memory.address mem ~frame v i) cells
  in
  check_int "addresses all distinct" (List.length cells)
    (List.length (List.sort_uniq compare addrs));
  ignore fid

(* A variable that two functions both declare (not something the parser
   makes) lives in a frame of each, at each function's own slot and
   offset, as it did when frames kept their cells by variable id. *)
let test_memory_shared_local () =
  let p = memory_program () in
  let main = Mir.Program.find_func_exn p "main" in
  let callee = Mir.Program.find_func_exn p "callee" in
  let buf = List.find (fun (v : Mir.Var.t) -> v.name = "buf") main.Mir.Func.locals in
  let callee = { callee with Mir.Func.locals = buf :: callee.Mir.Func.locals } in
  let p = { p with Mir.Program.funcs = [ main; callee ] } in
  let mem = M.Memory.create p and reference = Interp_ref.Memory.create p in
  let f1 = M.Memory.push_frame mem main and r1 = Interp_ref.Memory.push_frame reference main in
  let f2 = M.Memory.push_frame mem callee and r2 = Interp_ref.Memory.push_frame reference callee in
  check "same frame ids" true (f1 = r1 && f2 = r2);
  List.iter
    (fun (frame, value) ->
      check "store" true (M.Memory.store mem ~frame buf 1 (M.Value.Int value));
      ignore (Interp_ref.Memory.store reference ~frame buf 1 (M.Value.Int value)))
    [ (f1, 5); (f2, 6) ];
  List.iter
    (fun frame ->
      check "load" true
        (M.Memory.load mem ~frame buf 1 = Interp_ref.Memory.load reference ~frame buf 1);
      check_int "address"
        (Interp_ref.Memory.address reference ~frame buf 1)
        (M.Memory.address mem ~frame buf 1))
    [ f1; f2 ];
  check "each frame keeps its own cells" true
    (M.Memory.load mem ~frame:f1 buf 1 = Some (M.Value.Int 5)
    && M.Memory.load mem ~frame:f2 buf 1 = Some (M.Value.Int 6))

let test_recursion_frames_isolated () =
  (* each recursive activation gets its own locals *)
  let p =
    Mir.Parser.program_of_string
      {|
func rec(r0) {
 var depth
start:
  store depth, r0
  br le r0, 0, base, deeper
deeper:
  r1 = sub r0, 1
  r2 = call rec(r1)
  r3 = load depth
  output r3
  ret r3
base:
  r9 = load depth
  output r9
  ret 0
}
func main() {
entry:
  r0 = call rec(3)
  ret r0
}
|}
  in
  let o = M.Interp.run p M.Interp.default_config in
  (* outputs: depth values as frames unwind: 0 (base), then 1, 2, 3 *)
  check "recursion isolates frames" true (outputs o = [ 0; 1; 2; 3 ])

let test_trap_on_alarm () =
  let p =
    Mir.Parser.program_of_string
      {|
func main() {
 var flag
entry:
  store flag, 1
  jmp first
first:
  r0 = load flag
  br eq r0, 1, second, bad
second:
  r1 = load flag
  br eq r1, 1, good, bad
good:
  output 1
  ret 0
bad:
  output 2
  ret 1
}
|}
  in
  let system = Ipds_core.System.build p in
  let rec attack seed =
    if seed > 20 then Alcotest.fail "no seed hit flag"
    else begin
      let checker = Ipds_core.System.new_checker system in
      let o =
        M.Interp.run p
          {
            M.Interp.default_config with
            checker = Some checker;
            trap_on_alarm = true;
            tamper =
              Some
                {
                  M.Tamper.at_step = 4;
                  site =
                    M.Tamper.Mem_write { model = M.Tamper.Stack_overflow; value = 0 };
                  seed;
                };
          }
      in
      match o.M.Interp.injection with
      | Some _ -> o
      | None -> attack (seed + 1)
    end
  in
  let o = attack 0 in
  (match o.M.Interp.reason with
  | M.Interp.Trapped a -> check "trap carries the alarm" true (a.Ipds_core.Checker.sequence >= 0)
  | M.Interp.Exited _ | M.Interp.Halted | M.Interp.Fault _ | M.Interp.Out_of_steps ->
      Alcotest.fail "expected an IPDS trap");
  (* trapped before the tainted path could produce output *)
  check "no output after trap" true (o.M.Interp.outputs = [])

let test_printers () =
  let show pp v = Format.asprintf "%a" pp v in
  check "int value pp" true (String.equal (show M.Value.pp (M.Value.Int 3)) "3");
  let v = Mir.Var.make ~id:0 ~name:"buf" ~size:4 ~storage:Mir.Var.Local in
  let p = M.Value.Ptr { M.Value.frame = 2; var = v; index = 1 } in
  check "ptr value pp mentions var" true
    (let s = show M.Value.pp p in
     String.length s > 3 && String.sub s 0 4 = "&buf");
  check "truthy" true (M.Value.truthy p && M.Value.truthy (M.Value.Int 1));
  check "zero falsy" false (M.Value.truthy M.Value.zero);
  let e =
    { M.Event.fname = "f"; iid = 3; pc = 0x1010; kind = M.Event.Branch { taken = true; target_pc = 0x1000 } }
  in
  check "event pp mentions branch" true
    (let s = show M.Event.pp e in
     let rec has i = i + 6 <= String.length s && (String.sub s i 6 = "branch" || has (i + 1)) in
     has 0)

(* ---------- sink commit-order: replayed checking = inline checking ---------- *)

(* Run once with an inline checker AND the event sink on, replay the
   sink stream through a fresh checker, and require identical verdicts.
   This is the contract the remote verdict server depends on, and it
   only holds if the sink emits in commit order — a call that faults
   pushing its frame (stack overflow, extern fault) must never reach
   the sink. *)
let sink_replay_agrees ?tamper ?(trap_on_alarm = false) ~seed p =
  let system = Ipds_core.System.build p in
  let checker = Ipds_core.System.new_checker system in
  let events = ref [] in
  let o =
    M.Interp.run p
      {
        max_steps = 2000;
        inputs = M.Input_script.random ~seed ();
        checker = Some checker;
        trap_on_alarm;
        tamper;
        record_trace = false;
        sink = Some (fun e -> events := e :: !events);
      }
  in
  let replayed = Ipds_core.System.new_checker system in
  M.Replay.feed_all replayed
    ~defined:(Ipds_core.System.mem system)
    (List.rev !events);
  let module C = Ipds_core.Checker in
  ignore o;
  C.alarms replayed = C.alarms checker
  && C.branches_seen replayed = C.branches_seen checker
  && C.depth replayed = C.depth checker

let prop_sink_replay_matches_inline =
  QCheck2.Test.make
    ~name:"sink-replayed checking = inline checking (faulting programs)"
    ~count:100 Gen.mir_program (sink_replay_agrees ~seed:7)

let prop_sink_replay_matches_inline_tampered =
  QCheck2.Test.make
    ~name:"sink-replayed checking = inline checking (tampered, trapping)"
    ~count:100 Gen.mir_program
    (fun p ->
      sink_replay_agrees
        ~tamper:
          {
            M.Tamper.at_step = 7;
            site =
              M.Tamper.Mem_write { model = M.Tamper.Arbitrary_write; value = 13 };
            seed = 3;
          }
        ~trap_on_alarm:true ~seed:7 p)

let prop_sink_replay_matches_inline_cond_flip =
  QCheck2.Test.make
    ~name:"sink-replayed checking = inline checking (cond-flip, trapping)"
    ~count:100 Gen.mir_program
    (fun p ->
      sink_replay_agrees
        ~tamper:{ M.Tamper.at_step = 5; site = M.Tamper.Cond_flip; seed = 9 }
        ~trap_on_alarm:true ~seed:7 p)

let prop_sink_replay_matches_inline_insn_skip =
  QCheck2.Test.make
    ~name:"sink-replayed checking = inline checking (insn-skip, trapping)"
    ~count:100 Gen.mir_program
    (fun p ->
      sink_replay_agrees
        ~tamper:{ M.Tamper.at_step = 5; site = M.Tamper.Insn_skip; seed = 9 }
        ~trap_on_alarm:true ~seed:7 p)

(* The branch-fault differential on a real server: every injected flip
   or skip that changes the committed trace must yield the same verdicts
   through Replay.feed over the sink stream as through the inline
   checker — the contract the remote verdict path depends on. *)
let test_sink_replay_branch_faults_workload () =
  let p = Ipds_workloads.Workloads.(program (find "telnetd")) in
  let system = Ipds_core.System.build p in
  let module C = Ipds_core.Checker in
  let changed = ref 0 and injected = ref 0 in
  List.iter
    (fun site ->
      for i = 0 to 9 do
        let inputs = M.Input_script.random ~seed:(400 + i) () in
        let benign =
          M.Interp.run p
            { M.Interp.default_config with inputs; record_trace = false }
        in
        let at_step = max 1 (benign.M.Interp.steps * (i + 1) / 12) in
        let checker = Ipds_core.System.new_checker system in
        let events = ref [] in
        let o =
          M.Interp.run p
            {
              M.Interp.default_config with
              inputs;
              checker = Some checker;
              tamper = Some { M.Tamper.at_step; site; seed = i };
              record_trace = false;
              sink = Some (fun e -> events := e :: !events);
            }
        in
        match o.M.Interp.injection with
        | Some (M.Tamper.Flipped_branch _ | M.Tamper.Skipped_branch _) ->
            incr injected;
            if M.Interp.control_flow_changed benign o then incr changed;
            let replayed = Ipds_core.System.new_checker system in
            M.Replay.feed_all replayed
              ~defined:(Ipds_core.System.mem system)
              (List.rev !events);
            check "replayed verdicts = inline (branch fault)" true
              (C.alarms replayed = C.alarms checker
              && C.branches_seen replayed = C.branches_seen checker
              && C.depth replayed = C.depth checker)
        | Some (M.Tamper.Tampered_cell _) ->
            Alcotest.fail "branch-fault plan injected a memory write"
        | None -> ()
      done)
    [ M.Tamper.Cond_flip; M.Tamper.Insn_skip ];
  check "campaign injected branch faults" true (!injected > 0);
  check "some faults changed the committed trace" true (!changed > 0)

let test_sink_commit_order_on_stack_overflow () =
  (* unbounded recursion: the interpreter faults inside push_function
     mid-[Call]; with commit-order emission the sink never sees the
     aborted call, so replay depth matches the inline checker's *)
  let p =
    Mir.Parser.program_of_string
      {|
func f() {
start:
  r0 = call f()
  ret r0
}
func main() {
entry:
  r0 = call f()
  ret r0
}
|}
  in
  (match
     (M.Interp.run p { M.Interp.default_config with max_steps = 100_000 }).M.Interp.reason
   with
  | M.Interp.Fault _ -> ()
  | _ -> Alcotest.fail "expected a call-stack-overflow fault");
  check "replay = inline across a mid-call fault" true
    (sink_replay_agrees ~seed:1 p)

let prop_random_programs_run =
  QCheck2.Test.make ~name:"random MIR programs run without crashing the host"
    ~count:150 Gen.mir_program (fun p ->
      let o =
        M.Interp.run p
          {
            M.Interp.default_config with
            max_steps = 2000;
            inputs = M.Input_script.random ~seed:1 ();
          }
      in
      o.M.Interp.steps <= 2000)

(* ---------- oracle: the library against the reference ---------- *)

(* Interp_ref keeps the interpreter and memory from before functions,
   pcs and cells were resolved once per run.  Every run below is made by
   both with fresh inputs and a fresh checker each, and must agree on
   the whole sink stream and on every outcome field; a run without a
   sink must agree on the outcome too, so skipping the event payloads
   changes nothing else. *)

let ref_members =
  match Sys.getenv_opt "IPDS_INTERP_MEMBERS" with
  | Some n -> int_of_string n
  | None -> 200

let show_reason = function
  | M.Interp.Exited v -> Format.asprintf "exit %a" M.Value.pp v
  | M.Interp.Halted -> "halt"
  | M.Interp.Fault m -> "fault " ^ m
  | M.Interp.Out_of_steps -> "steps"
  | M.Interp.Trapped a -> Printf.sprintf "trap 0x%x" a.Ipds_core.Checker.branch_pc

let outcome_agrees ~label (got : M.Interp.outcome) (want : M.Interp.outcome) =
  let field name ok = if not ok then Alcotest.failf "%s: outcome field %s differs" label name in
  if got.reason <> want.reason then
    Alcotest.failf "%s: stopped with %s, reference %s" label (show_reason got.reason)
      (show_reason want.reason);
  field "steps" (got.steps = want.steps);
  field "branches" (got.branches = want.branches);
  field "outputs" (got.outputs = want.outputs);
  field "branch_trace" (got.branch_trace = want.branch_trace);
  field "trace_digest" (got.trace_digest = want.trace_digest);
  field "alarms" (got.alarms = want.alarms);
  field "injection" (got.injection = want.injection)

let events_agree ~label got want =
  let show e = Format.asprintf "%a" M.Event.pp e in
  let rec go k got want =
    match got, want with
    | [], [] -> ()
    | g :: got, w :: want ->
        if g <> w then
          Alcotest.failf "%s: event %d is %s, reference %s" label k (show g) (show w);
        go (k + 1) got want
    | _ :: _, [] -> Alcotest.failf "%s: %d events past the reference's" label (List.length got)
    | [], _ :: _ -> Alcotest.failf "%s: %d reference events missing" label (List.length want)
  in
  go 0 got want

(* One configuration, run three times: library and reference with a
   sink, library without. *)
let interp_agrees ~label ?system ?(trap_on_alarm = false) ?tamper
    ?(max_steps = M.Interp.default_config.max_steps) ~inputs p =
  let config sink =
    {
      M.Interp.default_config with
      max_steps;
      inputs = inputs ();
      checker = Option.map Ipds_core.System.new_checker system;
      trap_on_alarm;
      tamper;
      sink;
    }
  in
  let traced run =
    let events = ref [] in
    let o = run p (config (Some (fun e -> events := e :: !events))) in
    (o, List.rev !events)
  in
  let want, want_events = traced Interp_ref.Interp.run in
  let got, got_events = traced M.Interp.run in
  events_agree ~label got_events want_events;
  outcome_agrees ~label got want;
  outcome_agrees ~label:(label ^ ", no sink") (M.Interp.run p (config None)) want;
  want

(* A physical address that the program's layout may or may not put a
   live cell at, spread over the globals and main's frame. *)
let probe_address (p : Mir.Program.t) seed =
  let main = Mir.Program.find_func_exn p p.main in
  if seed mod 2 = 0 && p.globals <> [] then M.Data_layout.globals_base + (seed mod 16)
  else M.Data_layout.stack_top - M.Data_layout.frame_size main + (seed mod 40)

let tamper_sites p ~seed =
  [
    M.Tamper.Mem_write { model = M.Tamper.Stack_overflow; value = seed land 0xff };
    M.Tamper.Mem_write { model = M.Tamper.Arbitrary_write; value = (seed * 7) land 0xff };
    M.Tamper.Mem_write_at { addr = probe_address p seed; value = 1 + (seed land 0x3f) };
    M.Tamper.Cond_flip;
    M.Tamper.Insn_skip;
  ]

(* Benign, then each tamper site at a seeded step of the benign run;
   returns the reference outcomes.  Checked runs trap at the first alarm
   on odd seeds. *)
let program_agrees ~label ?system ~sites ~seed p =
  let inputs () = M.Input_script.random ~seed () in
  let trap_on_alarm = seed mod 2 = 1 in
  let benign = interp_agrees ~label ?system ~trap_on_alarm ~inputs p in
  benign
  :: List.mapi
       (fun k site ->
         let at_step = 1 + (((seed * 7919) + (k * 104729)) mod max 1 benign.M.Interp.steps) in
         interp_agrees
           ~label:(Printf.sprintf "%s, site %d at %d" label k at_step)
           ?system ~trap_on_alarm ~inputs
           ~tamper:{ M.Tamper.at_step; site; seed = seed + k }
           p)
       sites

let test_ref_builtins () =
  let outcomes =
    List.concat_map
      (fun (w : Ipds_workloads.Workloads.t) ->
        let p = Ipds_workloads.Workloads.program w in
        let system = Ipds_core.System.build p in
        List.concat_map
          (fun seed ->
            let sites = tamper_sites p ~seed in
            let label = Printf.sprintf "%s/%d" w.name seed in
            program_agrees ~label ~sites ~seed p
            @ program_agrees ~label:(label ^ " checked") ~system ~sites ~seed p)
          (List.init 8 Fun.id))
      Ipds_workloads.Workloads.all
  in
  (* the cases are only worth comparing if they reach every path *)
  let count f = List.length (List.filter f outcomes) in
  let reached what f = check (what ^ " reached") true (count f > 0) in
  reached "tampered cell" (fun o ->
      match o.M.Interp.injection with Some (M.Tamper.Tampered_cell _) -> true | _ -> false);
  reached "flipped branch" (fun o ->
      match o.M.Interp.injection with Some (M.Tamper.Flipped_branch _) -> true | _ -> false);
  reached "skipped branch" (fun o ->
      match o.M.Interp.injection with Some (M.Tamper.Skipped_branch _) -> true | _ -> false);
  reached "alarm" (fun o -> o.M.Interp.alarms <> []);
  reached "trap" (fun o ->
      match o.M.Interp.reason with M.Interp.Trapped _ -> true | _ -> false)

(* Generated members, unchecked and checked, each with one tamper site
   picked by index; [IPDS_INTERP_MEMBERS] raises the count for the
   opt-in [@interp-diff] alias. *)
let test_ref_generated () =
  for index = 0 to ref_members - 1 do
    let p = Ipds_gen.Gen.compile ~seed:2006 ~index () in
    let sites = tamper_sites p ~seed:index in
    let sites = [ List.nth sites (index mod List.length sites) ] in
    let label = Printf.sprintf "gen 2006/%d" index in
    ignore (program_agrees ~label ~sites ~seed:index p);
    ignore
      (program_agrees ~label:(label ^ " checked") ~system:(Ipds_core.System.build p)
         ~sites ~seed:index p)
  done

(* Calls past the depth cap, pointers into other frames and a dangling
   one, which the workloads never reach. *)
let test_ref_edges () =
  let inputs () = M.Input_script.random ~seed:3 () in
  let agree label src =
    ignore (interp_agrees ~label ~inputs (Mir.Parser.program_of_string src))
  in
  agree "unbounded recursion" {|
func f() {
start:
  r0 = call f()
  ret r0
}
func main() {
entry:
  r0 = call f()
  ret r0
}
|};
  agree "pointer into a caller's frame" {|
func fill(r0) {
start:
  store [r0], 9
  r1 = add r0, 1
  store [r1], 11
  r2 = load [r0]
  ret r2
}
func main() {
 var a[2]
entry:
  r0 = addr a[0]
  r1 = call fill(r0)
  r2 = load a[1]
  output r1
  output r2
  output r0
  ret 0
}
|};
  agree "load indexed by its own destination" {|
func main() {
 var a[4]
entry:
  store a[0], 2
  store a[2], 7
  r1 = 0
  r1 = load a[r1]
  r1 = load a[r1]
  output r1
  r2 = addr a[1]
  r2 = load [r2]
  ret r1
}
|};
  let dangling = {|
func leak() {
 var x
start:
  r0 = addr x[0]
  ret r0
}
func main() {
entry:
  r0 = call leak()
  output r0
  r1 = load [r0]
  ret r1
}
|}
  in
  agree "dangling pointer" dangling;
  let o = M.Interp.run (Mir.Parser.program_of_string dangling) M.Interp.default_config in
  check "dangling dereference faults" true
    (o.M.Interp.reason = M.Interp.Fault "dangling pointer dereference")

let prop_ref_random_programs =
  QCheck2.Test.make ~name:"random MIR programs agree with the reference"
    ~count:200 Gen.mir_program (fun p ->
      ignore
        (interp_agrees ~label:"random MIR" ~max_steps:5000
           ~inputs:(fun () -> M.Input_script.random ~seed:1 ())
           ~tamper:
             { M.Tamper.at_step = 7; site = M.Tamper.Mem_write
                 { model = M.Tamper.Arbitrary_write; value = 3 }; seed = 5 }
           p);
      true)

(* memcpy reads every source cell before writing, so an overlapping copy
   moves the old contents, in either direction; a 4 096-cell copy is
   linear and cell-for-cell the reference's. *)
let test_memcpy () =
  let overlap =
    {|
extern memcpy writes(0)
func main() {
 var a[8]
entry:
  store a[0], 1
  store a[1], 2
  store a[2], 3
  store a[3], 4
  store a[4], 5
  store a[5], 6
  store a[6], 7
  store a[7], 8
  r0 = addr a[0]
  r1 = addr a[2]
  r2 = call memcpy(r1, r0, 5)
  r3 = call memcpy(r0, r1, 3)
  r4 = call memcpy(r1, r0, 20)
  r5 = 0
  jmp loop
loop:
  r6 = load a[r5]
  output r6
  r5 = add r5, 1
  br lt r5, 8, loop, done
done:
  ret 0
}
|}
  in
  let p = Mir.Parser.program_of_string overlap in
  let inputs () = M.Input_script.constant 0 in
  let o = interp_agrees ~label:"overlapping memcpy" ~inputs p in
  (* a = 1..8; a[2..6] <- old a[0..4]: 1 2 1 2 3 4 5 8; a[0..2] <- old
     a[2..4]: 1 2 3 2 3 4 5 8; a[2..7] <- old a[0..5]: 1 2 1 2 3 2 3 4 *)
  check "overlapping copies move the old contents" true
    (outputs o = [ 1; 2; 1; 2; 3; 2; 3; 4 ]);
  let big =
    {|
extern recv writes(0)
extern memcpy writes(0)
func main() {
 var src[4096]
 var dst[4096]
entry:
  r0 = addr src[0]
  r1 = call recv(r0, 4096)
  r2 = addr dst[0]
  r3 = call memcpy(r2, r0, 4096)
  r4 = 0
  jmp loop
loop:
  r5 = load dst[r4]
  output r5
  r4 = add r4, 1
  br lt r4, 4096, loop, done
done:
  ret r3
}
|}
  in
  let o =
    interp_agrees ~label:"4 096-cell memcpy"
      ~inputs:(fun () -> M.Input_script.random ~seed:11 ())
      (Mir.Parser.program_of_string big)
  in
  check_int "every cell copied" 4096 (List.length (outputs o));
  check "copied cells are the inputs" true
    (List.exists (fun v -> v <> 0) (outputs o))

(* Every live cell's address is the one Data_layout defines: the global
   segment's, or the frame's base (stack top less the frames up to and
   including it) plus the local offset.  Checked every few events along
   each built-in's run, replaying its calls and returns into a memory;
   a popped frame's cells keep the stale 0xdead0000 form. *)
let test_addresses_match_layout () =
  List.iter
    (fun (w : Ipds_workloads.Workloads.t) ->
      let p = Ipds_workloads.Workloads.program w in
      let events = ref [] in
      ignore
        (M.Interp.run p
           {
             M.Interp.default_config with
             inputs = M.Input_script.random ~seed:5 ();
             sink = Some (fun e -> events := e :: !events);
           });
      let mem = M.Memory.create p in
      let frames = ref [] (* (id, func, base), innermost first *) in
      let sp = ref M.Data_layout.stack_top in
      let dead = ref [] in
      let checked = ref 0 in
      let check_cells () =
        List.iter
          (fun (frame, (v : Mir.Var.t), i) ->
            let want =
              if frame = 0 then M.Data_layout.global_address p v i
              else
                let _, f, base = List.find (fun (id, _, _) -> id = frame) !frames in
                base + M.Data_layout.local_offset f v i
            in
            incr checked;
            check_int (Printf.sprintf "%s: %s[%d]@f%d" w.name v.name i frame) want
              (M.Memory.address mem ~frame v i))
          (M.Memory.live_cells mem ~scope:`Anywhere);
        List.iter
          (fun (frame, (v : Mir.Var.t)) ->
            for i = -1 to v.size do
              check_int "dead frame address"
                (0xdead0000 + (Ipds_alias.Access.wrap_index v i * M.Data_layout.cell_bytes))
                (M.Memory.address mem ~frame v i)
            done)
          !dead
      in
      List.iteri
        (fun k (e : M.Event.t) ->
          (match e.kind with
          | M.Event.Call { callee } when Mir.Program.is_defined p callee ->
              let f = Mir.Program.find_func_exn p callee in
              let id = M.Memory.push_frame mem f in
              sp := !sp - M.Data_layout.frame_size f;
              frames := (id, f, !sp) :: !frames
          | M.Event.Ret -> (
              M.Memory.pop_frame mem;
              match !frames with
              | (id, f, base) :: rest ->
                  List.iter (fun v -> dead := (id, v) :: !dead) f.Mir.Func.locals;
                  sp := base + M.Data_layout.frame_size f;
                  frames := rest
              | [] -> Alcotest.fail "return with no frame")
          | _ -> ());
          if k mod 97 = 0 then check_cells ())
        (List.rev !events);
      check "cells were checked" true (!checked > 0))
    Ipds_workloads.Workloads.all

let () =
  Alcotest.run "machine"
    [
      ( "interp",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "memory/arrays" `Quick test_memory_and_arrays;
          Alcotest.test_case "pointers" `Quick test_pointers;
          Alcotest.test_case "deref non-pointer" `Quick test_deref_non_pointer_faults;
          Alcotest.test_case "dangling pointer" `Quick test_dangling_pointer_faults;
          Alcotest.test_case "calls/recursion" `Quick test_calls_and_recursion;
          Alcotest.test_case "out of steps" `Quick test_out_of_steps;
          Alcotest.test_case "halt" `Quick test_halt;
          QCheck_alcotest.to_alcotest prop_random_programs_run;
        ] );
      ( "sink",
        [
          QCheck_alcotest.to_alcotest prop_sink_replay_matches_inline;
          QCheck_alcotest.to_alcotest prop_sink_replay_matches_inline_tampered;
          QCheck_alcotest.to_alcotest prop_sink_replay_matches_inline_cond_flip;
          QCheck_alcotest.to_alcotest prop_sink_replay_matches_inline_insn_skip;
          Alcotest.test_case "branch-fault differential on a server" `Quick
            test_sink_replay_branch_faults_workload;
          Alcotest.test_case "commit order across mid-call fault" `Quick
            test_sink_commit_order_on_stack_overflow;
        ] );
      ( "memory",
        [
          Alcotest.test_case "frames" `Quick test_memory_frames;
          Alcotest.test_case "load/store" `Quick test_memory_load_store;
          Alcotest.test_case "live cells" `Quick test_memory_live_cells;
          Alcotest.test_case "addresses disjoint" `Quick test_addresses_disjoint;
          Alcotest.test_case "recursion isolation" `Quick test_recursion_frames_isolated;
          Alcotest.test_case "addresses match the data layout" `Quick
            test_addresses_match_layout;
          Alcotest.test_case "a local two functions declare" `Quick test_memory_shared_local;
        ] );
      ( "externs",
        [
          Alcotest.test_case "memory externs" `Quick test_externs;
          Alcotest.test_case "strcmp" `Quick test_strcmp;
          Alcotest.test_case "memcpy overlap and size" `Quick test_memcpy;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "built-ins, every fault site" `Quick test_ref_builtins;
          Alcotest.test_case "generated members" `Quick test_ref_generated;
          Alcotest.test_case "faults and dangling pointers" `Quick test_ref_edges;
          QCheck_alcotest.to_alcotest prop_ref_random_programs;
        ] );
      ("inputs", [ Alcotest.test_case "scripts" `Quick test_input_script ]);
      ( "tamper",
        [
          Alcotest.test_case "deterministic" `Quick test_tamper_deterministic;
          Alcotest.test_case "no-op value" `Quick test_tamper_noop_when_same_value;
          Alcotest.test_case "changes behavior" `Quick test_tamper_changes_behavior;
          Alcotest.test_case "zero-fault plan is identity" `Quick
            test_zero_fault_plan_is_identity;
          Alcotest.test_case "trace recording" `Quick test_trace_recording;
          Alcotest.test_case "trap on alarm" `Quick test_trap_on_alarm;
          Alcotest.test_case "printers" `Quick test_printers;
        ] );
    ]
