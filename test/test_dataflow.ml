(* Tests for the dataflow framework instantiations: register reaching
   definitions and liveness.  The bit-vector reaching definitions are
   also checked against [Reaching_defs_ref], the per-register set
   solver they replaced, on every (iid, register) of the built-ins and
   of a generated population, over the full and the refine-pruned
   views. *)

module Mir = Ipds_mir
module Cfg = Ipds_cfg.Cfg
module Feas = Ipds_cfg.Feasibility
module Rd = Ipds_dataflow.Reaching_defs
module Live = Ipds_dataflow.Liveness

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let func_of src = Mir.Program.find_func_exn (Mir.Parser.program_of_string src) "main"

(* r0 defined twice on different paths, merged at join. *)
let merge_func () =
  func_of
    {|
func main() {
 var x
entry:
  r1 = load x
  br lt r1, 5, a, b
a:
  r0 = 1
  jmp join
b:
  r0 = 2
  jmp join
join:
  output r0
  ret
}
|}

let test_unique_defs () =
  let f = merge_func () in
  let rd = Rd.compute (Cfg.make f) in
  (* At the branch (iid 1), r1's unique def is the load (iid 0). *)
  (match Rd.unique_def rd ~iid:1 (Mir.Reg.make 1) with
  | Some (Rd.At 0) -> ()
  | Some _ | None -> Alcotest.fail "r1 should have the load as unique def");
  (* At the output (iid 6), r0 has two reaching defs. *)
  check "merged register has no unique def" true
    (Rd.unique_def rd ~iid:6 (Mir.Reg.make 0) = None);
  check_int "exactly two defs reach" 2
    (Rd.Def_set.cardinal (Rd.before rd ~iid:6 (Mir.Reg.make 0)))

let test_entry_def () =
  let f = merge_func () in
  let rd = Rd.compute (Cfg.make f) in
  (* r2 is never defined: only the Entry pseudo-definition reaches. *)
  check "undefined register comes from entry" true
    (Rd.unique_def rd ~iid:0 (Mir.Reg.make 0) = Some Rd.Entry)

let test_def_killed_in_block () =
  let f =
    func_of
      {|
func main() {
entry:
  r0 = 1
  r0 = 2
  output r0
  ret
}
|}
  in
  let rd = Rd.compute (Cfg.make f) in
  (match Rd.unique_def rd ~iid:2 (Mir.Reg.make 0) with
  | Some (Rd.At 1) -> ()
  | Some _ | None -> Alcotest.fail "second def should kill the first")

let test_loop_carried () =
  let f =
    func_of
      {|
func main() {
entry:
  r0 = 0
  jmp loop
loop:
  r1 = add r0, 1
  r0 = r1
  r2 = 5
  br lt r1, 10, loop, exit
exit:
  ret
}
|}
  in
  ignore f;
  (* r0 at the add (iid 2) is reached by both the init and the copy. *)
  let rd = Rd.compute (Cfg.make f) in
  check "loop-carried value has two defs" true
    (Rd.unique_def rd ~iid:2 (Mir.Reg.make 0) = None)

(* ---------- the generic framework, driven directly ---------- *)

(* Forward must-constant analysis over one integer "register": join is
   agreement-or-top, transfer adds the block's body length (a toy
   monotone function) — checks fixpoints converge on loops. *)
module Toy = struct
  type t =
    | Bot
    | Known of int
    | Top

  let equal = ( = )

  let join a b =
    match a, b with
    | Bot, x | x, Bot -> x
    | Known m, Known n when m = n -> Known m
    | Known _, Known _ -> Top
    | Top, _ | _, Top -> Top
end

let test_framework_forward_loop () =
  let f =
    func_of
      {|
func main() {
entry:
  nop
  jmp loop
loop:
  nop
  nop
  br lt r0, 5, loop, exit
exit:
  ret
}
|}
  in
  let cfg = Cfg.make f in
  let module Solver = Ipds_dataflow.Framework.Forward (Toy) in
  (* transfer: entry produces Known 1; a loop that re-adds the same value
     stays Known; the merged fixpoint must be reached (no infinite loop) *)
  let transfer b d =
    match d with
    | Toy.Bot -> Toy.Bot
    | Toy.Top -> Toy.Top
    | Toy.Known n -> if b = 0 then Toy.Known (n + 1) else Toy.Known n
  in
  let block_in, block_out =
    Solver.solve (Feas.view_of_cfg cfg) ~entry:(Toy.Known 0) ~bottom:Toy.Bot
      ~transfer
  in
  check "entry in" true (block_in.(0) = Toy.Known 0);
  check "loop reaches stable fixpoint" true (block_in.(1) = Toy.Known 1);
  check "exit sees loop out" true (block_out.(2) = Toy.Known 1)

let test_framework_forward_conflict () =
  (* two paths producing different constants must merge to Top *)
  let f =
    func_of
      {|
func main() {
entry:
  br lt r0, 5, a, b
a:
  jmp join
b:
  jmp join
join:
  ret
}
|}
  in
  let cfg = Cfg.make f in
  let module Solver = Ipds_dataflow.Framework.Forward (Toy) in
  let transfer b d =
    match b, d with
    | 1, _ -> Toy.Known 10
    | 2, _ -> Toy.Known 20
    | _, d -> d
  in
  let block_in, _ =
    Solver.solve (Feas.view_of_cfg cfg) ~entry:(Toy.Known 0) ~bottom:Toy.Bot
      ~transfer
  in
  check "conflicting paths merge to top" true (block_in.(3) = Toy.Top)

let test_framework_backward () =
  let f =
    func_of
      {|
func main() {
entry:
  br lt r0, 5, a, b
a:
  ret
b:
  ret
}
|}
  in
  let cfg = Cfg.make f in
  let module Solver = Ipds_dataflow.Framework.Backward (Toy) in
  let transfer _ d = d in
  let block_in, _ =
    Solver.solve (Feas.view_of_cfg cfg) ~exit:(Toy.Known 9) ~bottom:Toy.Bot
      ~transfer
  in
  check "exit value propagates backwards" true (block_in.(0) = Toy.Known 9)

let test_framework_visits () =
  (* With the priority worklist, the single-loop function stabilizes in
     at most 4 block visits (3 blocks + one re-visit of the loop head);
     FIFO insertion order took more on this shape.  This pins the
     reverse-postorder scheduling. *)
  let f =
    func_of
      {|
func main() {
entry:
  nop
  jmp loop
loop:
  nop
  nop
  br lt r0, 5, loop, exit
exit:
  ret
}
|}
  in
  let module Solver = Ipds_dataflow.Framework.Forward (Toy) in
  let visits = ref 0 in
  let transfer b d =
    match d with
    | Toy.Bot -> Toy.Bot
    | Toy.Top -> Toy.Top
    | Toy.Known n -> if b = 0 then Toy.Known (n + 1) else Toy.Known n
  in
  let _ =
    Solver.solve ~visits
      (Feas.view_of_cfg (Cfg.make f))
      ~entry:(Toy.Known 0) ~bottom:Toy.Bot ~transfer
  in
  check "rpo worklist converges in <= 4 visits" true (!visits <= 4)

let test_framework_edge_hook () =
  (* The edge hook refines the value flowing along one specific edge:
     kill the value on the entry->b edge and join must see only a's. *)
  let f =
    func_of
      {|
func main() {
entry:
  br lt r0, 5, a, b
a:
  jmp join
b:
  jmp join
join:
  ret
}
|}
  in
  let module Solver = Ipds_dataflow.Framework.Forward (Toy) in
  let edge ~src:_ ~dst d = if dst = 2 then Toy.Bot else d in
  let transfer b d =
    match b, d with 1, _ -> Toy.Known 10 | 2, Toy.Bot -> Toy.Bot | _, d -> d
  in
  let block_in, _ =
    Solver.solve ~edge
      (Feas.view_of_cfg (Cfg.make f))
      ~entry:(Toy.Known 0) ~bottom:Toy.Bot ~transfer
  in
  check "edge hook starves b" true (block_in.(2) = Toy.Bot);
  check "join only sees a's constant" true (block_in.(3) = Toy.Known 10)

let test_pruned_view_tightens_rdefs () =
  let f = merge_func () in
  let cfg = Cfg.make f in
  (* Prune the taken direction of the entry branch (iid 1): block a is
     unreachable, so r0's def in b becomes unique at the output. *)
  let feas = Feas.prune (Feas.full cfg) [ (1, true) ] in
  let rd = Rd.compute ~feas cfg in
  (match Rd.unique_def rd ~iid:6 (Mir.Reg.make 0) with
  | Some (Rd.At 4) -> ()
  | Some _ | None -> Alcotest.fail "pruning should leave b's def unique");
  (* The pruned solution is pointwise subsumed by the unpruned one. *)
  let rd0 = Rd.compute cfg in
  check "pruned defs subset of unpruned" true
    (Rd.Def_set.subset
       (Rd.before rd ~iid:6 (Mir.Reg.make 0))
       (Rd.before rd0 ~iid:6 (Mir.Reg.make 0)))

(* ---------- differential check against the reference solver ---------- *)

module Ref = Reaching_defs_ref
module Ctx = Ipds_correlation.Context
module An = Ipds_correlation.Analysis
module Refine = Ipds_correlation.Refine
module W = Ipds_workloads.Workloads
module Reg = Ipds_obs.Registry

let m_visits = Reg.counter "dataflow.block_visits"

(* [solve ()] and the block visits it took. *)
let counted solve =
  let v0 = Reg.counter_value m_visits in
  let r = solve () in
  (r, Reg.counter_value m_visits - v0)

(* Both solvers on one view: the same visit count, and the same
   [before] and [unique_def] at every (iid, register).  The reference
   side walks each block once from its block-in state, which is what
   [Ref.before] replays per query. *)
let diff_view ~label ?feas cfg =
  let f = Cfg.func cfg in
  let rd, visits = counted (fun () -> Rd.compute ?feas cfg) in
  let rf, ref_visits = counted (fun () -> Ref.compute ?feas cfg) in
  if visits <> ref_visits then
    Alcotest.failf "%s: %d block visits, reference %d" label visits ref_visits;
  let check_point state iid =
    Array.iteri
      (fun r (want : Ref.Def_set.t) ->
        let reg = Mir.Reg.make r in
        if Rd.Def_set.elements (Rd.before rd ~iid reg) <> Ref.Def_set.elements want
        then Alcotest.failf "%s: before iid %d r%d differs" label iid r;
        let unique =
          if Ref.Def_set.cardinal want = 1 then Some (Ref.Def_set.choose want)
          else None
        in
        if Rd.unique_def rd ~iid reg <> unique then
          Alcotest.failf "%s: unique_def iid %d r%d differs" label iid r)
      state
  in
  Array.iteri
    (fun b (blk : Mir.Block.t) ->
      let state =
        Array.fold_left
          (fun state (i : Mir.Instr.t) ->
            check_point state i.Mir.Instr.iid;
            Ref.transfer_instr state i)
          rf.Ref.block_in.(b) blk.Mir.Block.body
      in
      check_point state blk.Mir.Block.term_iid)
    f.Mir.Func.blocks

(* Every function of [prog] on the full view and on the view its
   precision-on refinement pruned. *)
let diff_program ~label prog =
  let pw = Ctx.prepare prog in
  let on = { An.default_options with An.precision = An.precision_on } in
  List.iter
    (fun (f : Mir.Func.t) ->
      let label = label ^ "/" ^ f.Mir.Func.name in
      let cfg = Cfg.make f in
      diff_view ~label:(label ^ " full") cfg;
      let _, stats = Refine.analyze ~options:on pw f in
      let feas = Feas.prune (Feas.full cfg) stats.Refine.pruned in
      diff_view ~label:(label ^ " pruned") ~feas cfg)
    prog.Mir.Program.funcs

(* Seed-2006 members checked; [IPDS_RDEFS_MEMBERS] raises the count
   for the opt-in [@rdefs-diff] alias. *)
let diff_members =
  match Sys.getenv_opt "IPDS_RDEFS_MEMBERS" with
  | Some n -> int_of_string n
  | None -> 200

let test_diff_builtins () =
  List.iter (fun (w : W.t) -> diff_program ~label:w.W.name (W.program w)) W.all

let test_diff_generated () =
  for index = 0 to diff_members - 1 do
    diff_program
      ~label:(Printf.sprintf "gen 2006/%d" index)
      (Ipds_gen.Gen.compile ~seed:2006 ~index ())
  done

let test_liveness () =
  let f = merge_func () in
  let live = Live.compute (Cfg.make f) in
  (* r0 is live at the start of join (used by output). *)
  check "r0 live into join" true (Live.live_in live 3 (Mir.Reg.make 0));
  (* r1 is dead after the entry branch. *)
  check "r1 dead in a" false (Live.live_in live 1 (Mir.Reg.make 1));
  (* r1 is live before the branch. *)
  check "r1 live before branch" true (Live.live_before live ~iid:1 (Mir.Reg.make 1));
  (* r1 is dead after... i.e. live_before of block a's first instr *)
  check "r0 dead before its def in a" false
    (Live.live_before live ~iid:0 (Mir.Reg.make 0))

let () =
  Alcotest.run "dataflow"
    [
      ( "reaching-defs",
        [
          Alcotest.test_case "unique defs" `Quick test_unique_defs;
          Alcotest.test_case "entry def" `Quick test_entry_def;
          Alcotest.test_case "intra-block kill" `Quick test_def_killed_in_block;
          Alcotest.test_case "loop carried" `Quick test_loop_carried;
        ] );
      ( "rdefs-oracle",
        [
          Alcotest.test_case "built-ins" `Quick test_diff_builtins;
          Alcotest.test_case "generated members" `Slow test_diff_generated;
        ] );
      ("liveness", [ Alcotest.test_case "liveness" `Quick test_liveness ]);
      ( "framework",
        [
          Alcotest.test_case "forward loop fixpoint" `Quick test_framework_forward_loop;
          Alcotest.test_case "forward merge conflict" `Quick test_framework_forward_conflict;
          Alcotest.test_case "backward" `Quick test_framework_backward;
          Alcotest.test_case "rpo visit bound" `Quick test_framework_visits;
          Alcotest.test_case "edge hook" `Quick test_framework_edge_hook;
          Alcotest.test_case "pruned view tightens rdefs" `Quick
            test_pruned_view_tightens_rdefs;
        ] );
    ]
