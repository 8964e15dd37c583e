(* Tests for the feasible-path refinement loop (the precision flywheel)
   and the feasibility-pruned dataflow core under it:

   - the pruned-view dataflow solution is always at least as tight as
     the unpruned one (maximum fixed point over a subgraph);
   - a direction the refinement prunes is never committed by a benign
     run — the soundness obligation of the producer;
   - precision off is byte-identical to the base analysis on all ten
     workloads, and the degenerate full view equals the raw-CFG walk;
   - options fingerprints are pinned, so precision off reuses historical
     cache keys and precision on misses cleanly;
   - zero false positives with precision on (the paper's invariant must
     survive the pruning);
   - campaigns under precision on are deterministic across job counts. *)

module Mir = Ipds_mir
module Cfg = Ipds_cfg.Cfg
module Feas = Ipds_cfg.Feasibility
module Rd = Ipds_dataflow.Reaching_defs
module Live = Ipds_dataflow.Liveness
module An = Ipds_correlation.Analysis
module Ctx = Ipds_correlation.Context
module Refine = Ipds_correlation.Refine
module Core = Ipds_core
module M = Ipds_machine
module W = Ipds_workloads.Workloads
module H = Ipds_harness

let check = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let on_options = { An.default_options with An.precision = An.precision_on }
let result_str r = Format.asprintf "%a" An.pp_result r

let workload name =
  List.find (fun w -> String.equal w.W.name name) W.all

(* ---------- pruned solution <= unpruned solution ---------- *)

(* Deleting edges can only shrink the set of paths the solver joins
   over, so every pruned-view fact set must be a subset of the full-view
   one — for any prune set, sound or not (it is a property of the
   framework, not of the producer).  The feasibility layer's own
   invariants ride along. *)
let prop_pruned_tighter =
  QCheck2.Test.make ~name:"pruned dataflow <= unpruned on random MiniC"
    ~count:150 Gen.minic_program (fun p ->
      List.for_all
        (fun (f : Mir.Func.t) ->
          let pw = Ctx.prepare p in
          let _, stats = Refine.analyze ~options:on_options pw f in
          let cfg = Cfg.make f in
          let full = Feas.full cfg in
          let feas = Feas.prune full stats.Refine.pruned in
          Feas.invariant_subview feas
          && Feas.invariant_entry_preserved feas
          && Feas.invariant_monotone ~earlier:full ~later:feas
          &&
          let rd_full = Rd.compute cfg in
          let rd_pruned = Rd.compute ~feas cfg in
          let lv_full = Live.compute cfg in
          let lv_pruned = Live.compute ~feas cfg in
          let ok = ref true in
          for iid = 0 to f.Mir.Func.instr_count - 1 do
            for r = 0 to f.Mir.Func.reg_count - 1 do
              let reg = Mir.Reg.make r in
              if
                not
                  (Rd.Def_set.subset
                     (Rd.before rd_pruned ~iid reg)
                     (Rd.before rd_full ~iid reg))
              then ok := false;
              if Live.live_before lv_pruned ~iid reg
                 && not (Live.live_before lv_full ~iid reg)
              then ok := false
            done
          done;
          !ok)
        p.Mir.Program.funcs)

(* ---------- pruned directions never commit benignly ---------- *)

let pruned_by_func p =
  let pw = Ctx.prepare p in
  List.map
    (fun (f : Mir.Func.t) ->
      let _, stats = Refine.analyze ~options:on_options pw f in
      (f.Mir.Func.name, stats.Refine.pruned))
    p.Mir.Program.funcs

let benign_avoids_pruned ~seed p =
  let pruned = pruned_by_func p in
  let violated = ref false in
  let sink (e : M.Event.t) =
    match e.M.Event.kind with
    | M.Event.Branch { taken; _ } -> (
        match List.assoc_opt e.M.Event.fname pruned with
        | Some dirs when List.mem (e.M.Event.iid, taken) dirs ->
            violated := true
        | Some _ | None -> ())
    | _ -> ()
  in
  let (_ : M.Interp.outcome) =
    M.Interp.run p
      {
        M.Interp.default_config with
        max_steps = 5000;
        inputs = M.Input_script.random ~seed ();
        sink = Some sink;
      }
  in
  not !violated

let prop_benign_never_pruned =
  QCheck2.Test.make ~name:"benign runs never commit a pruned direction"
    ~count:150
    QCheck2.Gen.(tup2 Gen.minic_program (int_bound 1000))
    (fun (p, seed) -> benign_avoids_pruned ~seed p)

let test_workloads_benign_never_pruned () =
  List.iter
    (fun w ->
      let p = W.program w in
      for seed = 0 to 9 do
        check
          (Printf.sprintf "%s seed %d avoids pruned directions" w.W.name seed)
          true
          (benign_avoids_pruned ~seed p)
      done)
    W.all

(* ---------- precision off is the historical analysis ---------- *)

let test_off_identical () =
  List.iter
    (fun w ->
      let p = W.program w in
      let pw = Ctx.prepare p in
      List.iter
        (fun (f : Mir.Func.t) ->
          let base = An.analyze_func pw f in
          let off, stats = Refine.analyze pw f in
          check
            (w.W.name ^ "/" ^ f.Mir.Func.name ^ ": off result = base")
            true
            (String.equal (result_str base) (result_str off));
          check "off runs exactly one round" true
            (stats.Refine.iterations = 1 && stats.Refine.edges_pruned = 0);
          let full_view =
            An.analyze_func ~feas:(Feas.full (Cfg.make f)) pw f
          in
          check
            (w.W.name ^ "/" ^ f.Mir.Func.name ^ ": full view = raw cfg")
            true
            (String.equal (result_str base) (result_str full_view)))
        p.Mir.Program.funcs)
    W.all

let test_fingerprints_pinned () =
  check_string "off fingerprint is the historical rendering"
    "store_load=true;load_load=true;affine=true;summary=faithful"
    (An.options_fingerprint An.default_options);
  check_string "refine fingerprint misses cleanly"
    "store_load=true;load_load=true;affine=true;summary=faithful;precision=refine;cap=4"
    (An.options_fingerprint on_options)

(* ---------- refinement visibly gains correlations ---------- *)

(* The four workloads whose audits route tested values through a merge
   with a (benignly dead) rescale arm: off-mode cannot trace through the
   two reaching definitions, on-mode prunes the dead arm and checks the
   audits again. *)
let test_construct_lift () =
  List.iter
    (fun name ->
      let p = W.program (workload name) in
      let pw = Ctx.prepare p in
      let f = Mir.Program.find_func_exn p "main" in
      let off = An.analyze_func pw f in
      let on, stats = Refine.analyze ~options:on_options pw f in
      check (name ^ " prunes at least one direction") true
        (stats.Refine.edges_pruned > 0);
      check (name ^ " refinement takes more than one round") true
        (stats.Refine.iterations > 1);
      check (name ^ " gains checked branches") true
        (List.length on.An.checked > List.length off.An.checked))
    [ "telnetd"; "sysklogd"; "httpd"; "sshd" ]

(* ---------- zero false positives with precision on ---------- *)

let no_alarms ~options ~seed p =
  let system = Core.System.build ~options p in
  let checker = Core.System.new_checker system in
  let o =
    M.Interp.run p
      {
        M.Interp.default_config with
        max_steps = 5000;
        inputs = M.Input_script.random ~seed ();
        checker = Some checker;
      }
  in
  o.M.Interp.alarms = []

let prop_precision_no_false_positives =
  QCheck2.Test.make ~name:"zero false positives with precision on" ~count:100
    QCheck2.Gen.(tup2 Gen.minic_program (int_bound 1000))
    (fun (p, seed) -> no_alarms ~options:on_options ~seed p)

let test_workloads_no_false_positives () =
  List.iter
    (fun w ->
      let p = W.program w in
      for seed = 0 to 9 do
        check
          (Printf.sprintf "%s seed %d clean under precision on" w.W.name seed)
          true
          (no_alarms ~options:on_options ~seed p)
      done)
    W.all

(* ---------- determinism across job counts ---------- *)

let test_jobs_deterministic () =
  let on =
    List.filter (fun (v : H.Sweep.variant) -> v.label = "on") H.Sweep.precision
  in
  let run jobs =
    Ipds_parallel.Pool.with_opt ~jobs (fun pool ->
        H.Sweep.run ~attacks:4 ~seed:11 ?pool on)
  in
  (* whole rows: per-workload counts, averages and census *)
  check "precision-on sweep rows identical for jobs 1 vs 4" true
    (run 1 = run 4)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "refine"
    [
      ( "pruned view",
        [
          qt prop_pruned_tighter;
          qt prop_benign_never_pruned;
          Alcotest.test_case "workloads avoid pruned directions" `Quick
            test_workloads_benign_never_pruned;
        ] );
      ( "precision off",
        [
          Alcotest.test_case "byte-identical to base analysis" `Quick
            test_off_identical;
          Alcotest.test_case "fingerprints pinned" `Quick
            test_fingerprints_pinned;
        ] );
      ( "precision on",
        [
          Alcotest.test_case "construct lift on edited workloads" `Quick
            test_construct_lift;
          qt prop_precision_no_false_positives;
          Alcotest.test_case "workloads clean" `Quick
            test_workloads_no_false_positives;
          Alcotest.test_case "jobs determinism" `Quick test_jobs_deterministic;
        ] );
    ]
