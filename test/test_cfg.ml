(* Tests for CFG construction, the instruction-level point graph, and
   branch-edge regions. *)

module Mir = Ipds_mir
module Cfg = Ipds_cfg.Cfg
module Pg = Ipds_cfg.Point_graph
module Region = Ipds_cfg.Region

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A diamond with a loop back edge:
     entry -> (a | b) -> join -> entry | exit *)
let diamond_loop () =
  let src =
    {|
func main() {
 var x
entry:
  r0 = load x
  br lt r0, 5, a, b
a:
  r1 = 1
  jmp join
b:
  r2 = 2
  jmp join
join:
  r3 = load x
  br lt r3, 10, entry, exit
exit:
  ret
}
|}
  in
  Mir.Program.find_func_exn (Mir.Parser.program_of_string src) "main"

let test_succs_preds () =
  let f = diamond_loop () in
  let cfg = Cfg.make f in
  check_int "blocks" 5 (Cfg.n_blocks cfg);
  check "entry succs" true (List.sort compare (Cfg.succs cfg 0) = [ 1; 2 ]);
  check "join preds" true (List.sort compare (Cfg.preds cfg 3) = [ 1; 2 ]);
  check "entry has back edge pred" true (List.mem 3 (Cfg.preds cfg 0));
  check "exit no succs" true (Cfg.succs cfg 4 = [])

let test_rpo_reachable () =
  let f = diamond_loop () in
  let cfg = Cfg.make f in
  let rpo = Cfg.reverse_postorder cfg in
  check_int "rpo covers all (all reachable)" 5 (Array.length rpo);
  check_int "rpo starts at entry" 0 rpo.(0);
  check "all reachable" true (Array.for_all (fun x -> x) (Cfg.reachable cfg))

let test_unreachable_block () =
  let src =
    {|
func main() {
entry:
  ret
island:
  jmp island
}
|}
  in
  let f = Mir.Program.find_func_exn (Mir.Parser.program_of_string src) "main" in
  let cfg = Cfg.make f in
  check "island unreachable" false (Cfg.reachable cfg).(1);
  check_int "rpo excludes island" 1 (Array.length (Cfg.reverse_postorder cfg))

let test_point_graph () =
  let f = diamond_loop () in
  let pg = Pg.make f in
  check_int "points = instr count" f.Mir.Func.instr_count (Pg.n_points pg);
  (* body instruction flows to next / terminator *)
  check "load flows to branch" true (Pg.succs pg 0 = [ 1 ]);
  (* entry branch flows to first points of a and b *)
  check "branch flows to both targets" true
    (List.sort compare (Pg.succs pg 1) = [ 2; 4 ]);
  check "return has no successors" true
    (Pg.succs pg f.Mir.Func.blocks.(4).Mir.Block.term_iid = [])

let test_reachability_avoiding () =
  let f = diamond_loop () in
  let pg = Pg.make f in
  (* From the entry branch, avoiding block a's instruction (iid 2), the
     join is still reachable through b. *)
  let reach = Pg.reach_after pg 1 ~avoid:2 in
  check "join reachable avoiding a" true reach.(6);
  (* Avoiding both side blocks' first instructions cuts join off. *)
  let reach2 = Pg.reach_after pg ~also:4 1 ~avoid:2 in
  check "join unreachable avoiding both sides" false reach2.(6)

let test_co_reachability () =
  let f = diamond_loop () in
  let pg = Pg.make f in
  let join_branch = f.Mir.Func.blocks.(3).Mir.Block.term_iid in
  let co = Pg.co_reach pg join_branch ~avoid:(-1) in
  check "entry load co-reaches join branch" true co.(0);
  check "join branch on its own cycle" true co.(join_branch);
  let exit_term = f.Mir.Func.blocks.(4).Mir.Block.term_iid in
  let co_exit = Pg.co_reach pg exit_term ~avoid:(-1) in
  check "exit term not on cycle" false co_exit.(exit_term)

(* The naive fixpoint for one avoided point [a]: row [p] of the result
   holds, as a bit set of 62 points a word, every point reachable from
   [p] in one or more steps over [edges] without entering [a].  Each
   edge [p -> q] with [q <> a] adds [q] and row [q] to row [p], until a
   pass over all edges changes nothing; passes alternate direction, so
   forward and backward graphs converge alike. *)
let closure (edges : int array array) ~a =
  let n = Array.length edges in
  let m = Array.make_matrix n ((n + 61) / 62) 0 in
  let changed = ref true and pass = ref 0 in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let p = if !pass land 1 = 0 then n - 1 - i else i in
      let row = m.(p) in
      Array.iter
        (fun q ->
          if q <> a then begin
            let w = q / 62 in
            let with_q = row.(w) lor (1 lsl (q mod 62)) in
            if with_q <> row.(w) then begin
              row.(w) <- with_q;
              changed := true
            end;
            Array.iteri
              (fun w bits ->
                if bits land lnot row.(w) <> 0 then begin
                  row.(w) <- row.(w) lor bits;
                  changed := true
                end)
              m.(q)
          end)
        edges.(p)
    done;
    incr pass
  done;
  m

(* Every query of [Pg.make ?branch_ok f], for every start point and
   every avoided point (and none), against the naive fixpoint over
   [Pg.succs] and [Pg.preds].  With [~also:p], [reach_after] must only
   unmark [p]: a path back through [p] goes on along the edges the walk
   started from. *)
let queries_agree ?branch_ok ~label (f : Mir.Func.t) =
  let pg = Pg.make ?branch_ok f in
  let n = Pg.n_points pg in
  let succs = Array.init n (Pg.succs pg) and preds = Array.init n (Pg.preds pg) in
  Array.iteri
    (fun p qs ->
      List.iter
        (fun q ->
          if not (List.mem p preds.(q)) then
            Alcotest.failf "%s: edge %d -> %d missing from preds" label p q)
        qs)
    succs;
  if Array.fold_left (fun k l -> k + List.length l) 0 preds
     <> Array.fold_left (fun k l -> k + List.length l) 0 succs
  then Alcotest.failf "%s: preds and succs differ in edge count" label;
  let succs = Array.map Array.of_list succs and preds = Array.map Array.of_list preds in
  for a = -1 to n - 1 do
    let reach = closure succs ~a and coreach = closure preds ~a in
    for p = 0 to n - 1 do
      (* [got] marks the points of [row] but [except]. *)
      let agree what (got : bool array) row ~except =
        for q = 0 to n - 1 do
          if got.(q) <> (q <> except && row.(q / 62) land (1 lsl (q mod 62)) <> 0) then
            Alcotest.failf "%s: %s from %d avoiding %d differs from the fixpoint at %d"
              label what p a q
        done
      in
      agree "reach_after" (Pg.reach_after pg p ~avoid:a) reach.(p) ~except:(-1);
      agree "reach_after ~also:p" (Pg.reach_after pg ~also:p p ~avoid:a) reach.(p) ~except:p;
      agree "co_reach" (Pg.co_reach pg p ~avoid:a) coreach.(p) ~except:(-1)
    done
  done

(* Drops about a third of the branch directions, as a refined
   feasibility view does. *)
let some_branches iid taken = (iid + Bool.to_int taken) mod 3 <> 0

let test_queries_builtins () =
  List.iter
    (fun (w : Ipds_workloads.Workloads.t) ->
      List.iter
        (fun (f : Mir.Func.t) ->
          let label = w.name ^ "/" ^ f.Mir.Func.name in
          queries_agree ~label f;
          queries_agree ~branch_ok:some_branches ~label:(label ^ " (pruned)") f)
        (Ipds_workloads.Workloads.program w).Mir.Program.funcs)
    Ipds_workloads.Workloads.all

let prop_queries_random =
  QCheck2.Test.make ~name:"point-graph queries match a naive fixpoint (random MIR)"
    ~count:100 Gen.mir_program (fun p ->
      List.iter
        (fun (f : Mir.Func.t) ->
          queries_agree ~label:f.Mir.Func.name f;
          queries_agree ~branch_ok:some_branches ~label:f.Mir.Func.name f)
        p.Mir.Program.funcs;
      true)

let test_regions () =
  let f = diamond_loop () in
  let entry_branch = f.Mir.Func.blocks.(0).Mir.Block.term_iid in
  let taken = Region.after_edge f ~branch_iid:entry_branch ~taken:true in
  (match taken.Region.stop with
  | Region.Next_branch b ->
      check_int "region a..join stops at join branch"
        f.Mir.Func.blocks.(3).Mir.Block.term_iid b
  | Region.Exits | Region.Loops_forever -> Alcotest.fail "expected Next_branch");
  (* region contains a's const and join's load, but no terminator iids *)
  check "region includes a's body" true (List.mem 2 taken.Region.instrs);
  check "region includes join's load" true (List.mem 6 taken.Region.instrs);
  check "region excludes jump terminators" false (List.mem 3 taken.Region.instrs);
  let entry_region = Region.from_entry f in
  check "entry region is the entry block body" true
    (entry_region.Region.instrs = [ 0 ]);
  let exit_region =
    Region.after_edge f ~branch_iid:f.Mir.Func.blocks.(3).Mir.Block.term_iid
      ~taken:false
  in
  check "not-taken join edge exits" true (exit_region.Region.stop = Region.Exits);
  List.iter
    (fun (iid, msg) ->
      Alcotest.check_raises msg (Invalid_argument ("Region.after_edge: " ^ msg)) (fun () ->
          ignore (Region.after_edge f ~branch_iid:iid ~taken:true)))
    [
      (0, "not a terminator iid");
      (f.Mir.Func.instr_count, "not a terminator iid");
      (-1, "not a terminator iid");
      (f.Mir.Func.blocks.(1).Mir.Block.term_iid, "not a conditional branch");
    ]

let test_region_jmp_cycle () =
  let src =
    {|
func main() {
entry:
  nop
  jmp loop
loop:
  nop
  jmp loop
}
|}
  in
  let f = Mir.Program.find_func_exn (Mir.Parser.program_of_string src) "main" in
  let r = Region.from_entry f in
  check "jump-only cycle detected" true (r.Region.stop = Region.Loops_forever);
  check_int "each block visited once" 2 (List.length r.Region.instrs)

let test_all_edges () =
  let f = diamond_loop () in
  check_int "two branches, four edges" 4 (List.length (Region.all_edges f))

let () =
  Alcotest.run "cfg"
    [
      ( "graph",
        [
          Alcotest.test_case "succs/preds" `Quick test_succs_preds;
          Alcotest.test_case "rpo/reachable" `Quick test_rpo_reachable;
          Alcotest.test_case "unreachable block" `Quick test_unreachable_block;
        ] );
      ( "points",
        [
          Alcotest.test_case "point graph" `Quick test_point_graph;
          Alcotest.test_case "reachability avoiding" `Quick test_reachability_avoiding;
          Alcotest.test_case "co-reachability" `Quick test_co_reachability;
          Alcotest.test_case "queries against a fixpoint" `Quick test_queries_builtins;
          QCheck_alcotest.to_alcotest prop_queries_random;
        ] );
      ( "regions",
        [
          Alcotest.test_case "after edges" `Quick test_regions;
          Alcotest.test_case "jump cycle" `Quick test_region_jmp_cycle;
          Alcotest.test_case "all edges" `Quick test_all_edges;
        ] );
    ]
