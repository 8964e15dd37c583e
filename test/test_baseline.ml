(* Tests for the N-gram syscall-trace baseline detector. *)

module B = Ipds_baseline
module M = Ipds_machine
module W = Ipds_workloads.Workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_ngram_basics () =
  let model = B.Ngram.train ~n:2 [ [ "a"; "b"; "c" ]; [ "b"; "a" ] ] in
  (* windows: ab, bc, c(tail), ba, plus the short-trace rule *)
  check "seen window passes" true (B.Ngram.anomalies model [ "a"; "b" ] = 0);
  check "unseen window flags" true (B.Ngram.flags model [ "c"; "a" ]);
  check "subtrace of training passes" true
    (not (B.Ngram.flags model [ "a"; "b"; "c" ]));
  check_int "n recorded" 2 (B.Ngram.n model);
  check "db non-empty" true (B.Ngram.size model > 0)

let test_ngram_window_semantics () =
  let model = B.Ngram.train ~n:3 [ [ "x"; "y"; "z"; "w" ] ] in
  (* trace [y;z;w] appears as a window of training *)
  check "interior window known" true (not (B.Ngram.flags model [ "y"; "z"; "w" ]));
  (* reordering flags *)
  check "reordered flags" true (B.Ngram.flags model [ "z"; "y"; "x" ]);
  (* one anomaly counted per bad window *)
  check "anomaly count" true (B.Ngram.anomalies model [ "z"; "y"; "x"; "q" ] >= 2)

let test_ngram_rejects_bad_n () =
  check "n=0 rejected" true
    (try
       ignore (B.Ngram.train ~n:0 []);
       false
     with Invalid_argument _ -> true)

let test_syscall_trace_collects () =
  let p = W.program (W.find "telnetd") in
  let trace =
    B.Syscall_trace.collect p
      ~config:
        {
          M.Interp.default_config with
          inputs = M.Input_script.random ~seed:5 ();
        }
  in
  check "trace ends with exit" true
    (match List.rev trace with
    | "exit" :: _ -> true
    | _ -> false);
  check "trace has library calls" true (List.length trace > 3);
  check "only extern names" true
    (List.for_all
       (fun s ->
         List.mem_assoc s Ipds_mir.Extern.default_table
         || List.mem s [ "exit"; "halt"; "fault"; "steps"; "trap" ])
       trace)

let test_syscall_trace_deterministic () =
  let p = W.program (W.find "sshd") in
  let collect () =
    B.Syscall_trace.collect p
      ~config:
        {
          M.Interp.default_config with
          inputs = M.Input_script.random ~seed:11 ();
        }
  in
  check "deterministic" true (collect () = collect ())

let test_model_accepts_benign () =
  (* A model trained on enough runs should accept most held-out runs. *)
  let p = W.program (W.find "crond") in
  let trace seed =
    B.Syscall_trace.collect p
      ~config:
        { M.Interp.default_config with inputs = M.Input_script.random ~seed () }
  in
  let model = B.Ngram.train ~n:3 (List.init 60 (fun i -> trace (100 + i))) in
  let fps =
    List.init 30 (fun i -> trace (5000 + i))
    |> List.filter (B.Ngram.flags model)
    |> List.length
  in
  check "few false positives with enough training" true (fps <= 3)

(* ---------- DME: layout-diversified replicas ---------- *)

let dme_config ~input_seed =
  {
    M.Interp.default_config with
    inputs = M.Input_script.random ~seed:input_seed ();
    record_trace = false;
  }

let test_dme_decorrelate_shape () =
  let p = W.program (W.find "telnetd") in
  let v = B.Dme.decorrelate p in
  check "variant validates" true (Ipds_mir.Validate.check v = []);
  check "involutive" true (B.Dme.decorrelate v = p);
  (* main has several locals, so at least one address must move *)
  let main p = Ipds_mir.Program.find_func_exn p "main" in
  let moved =
    List.exists
      (fun (var : Ipds_mir.Var.t) ->
        M.Data_layout.local_offset (main p) var 0
        <> M.Data_layout.local_offset (main v) var 0)
      (main p).Ipds_mir.Func.locals
  in
  check "some local moved" true moved

let test_dme_benign_pairs_agree () =
  (* every workload, several input scripts: the variant pair must be
     behaviourally indistinguishable — zero DME false positives *)
  List.iter
    (fun w ->
      let p = W.program w in
      let v = B.Dme.decorrelate p in
      for seed = 0 to 3 do
        let a = B.Dme.run ~config:(dme_config ~input_seed:(700 + seed)) p in
        let b = B.Dme.run ~config:(dme_config ~input_seed:(700 + seed)) v in
        check
          (w.W.name ^ " benign pair agrees (seed " ^ string_of_int seed ^ ")")
          true
          (not (B.Dme.diverged (B.Dme.canonical a) (B.Dme.canonical b)))
      done)
    W.all

let test_dme_divergence_is_canonical_difference () =
  (* the detector fires exactly when the canonical projections differ:
     tampered variant pairs from a real campaign, checked both ways *)
  let w = W.find "wu-ftpd" in
  let p = W.program w in
  let v = B.Dme.decorrelate p in
  let rng = Random.State.make [| 41 |] in
  let fired = ref 0 and quiet = ref 0 in
  for _ = 1 to 40 do
    let input_seed = Random.State.bits rng land 0xffffff in
    let benign = M.Interp.run p (dme_config ~input_seed) in
    if benign.M.Interp.steps > 2 then begin
      let at_step = 1 + Random.State.int rng (benign.M.Interp.steps - 1) in
      let value = Random.State.int rng 256 in
      let plan site = { M.Tamper.at_step; site; seed = Random.State.bits rng land 0xffffff } in
      let attacked =
        M.Interp.run p
          {
            (dme_config ~input_seed) with
            tamper = Some (plan (M.Tamper.Mem_write { model = M.Tamper.Arbitrary_write; value }));
          }
      in
      match attacked.M.Interp.injection with
      | Some (M.Tamper.Tampered_cell cell) ->
          let replica =
            M.Interp.run v
              {
                (dme_config ~input_seed) with
                tamper = Some (plan (M.Tamper.Mem_write_at { addr = cell.addr; value }));
              }
          in
          let ca = B.Dme.canonical attacked and cb = B.Dme.canonical replica in
          check "diverged iff canonical differ" true
            (B.Dme.diverged ca cb = (ca <> cb));
          if B.Dme.diverged ca cb then incr fired else incr quiet
      | _ -> ()
    end
  done;
  (* the campaign must exercise both sides of the detector *)
  check "some attacks diverge" true (!fired > 0);
  check "some attacks stay hidden" true (!quiet > 0)

let test_dme_physical_replay_matches_logical () =
  (* replaying a tamper at its own recorded address in the SAME layout
     must reproduce the original injection exactly *)
  let p = W.program (W.find "httpd") in
  let run tamper =
    M.Interp.run p { (dme_config ~input_seed:9) with tamper = Some tamper }
  in
  let original =
    run
      {
        M.Tamper.at_step = 80;
        site = M.Tamper.Mem_write { model = M.Tamper.Arbitrary_write; value = 5 };
        seed = 123;
      }
  in
  match original.M.Interp.injection with
  | Some (M.Tamper.Tampered_cell cell) ->
      let replay =
        run
          {
            M.Tamper.at_step = 80;
            site = M.Tamper.Mem_write_at { addr = cell.addr; value = 5 };
            seed = 123;
          }
      in
      (match replay.M.Interp.injection with
      | Some (M.Tamper.Tampered_cell cell') ->
          check "same cell" true
            (cell'.addr = cell.addr
            && cell'.var.Ipds_mir.Var.id = cell.var.Ipds_mir.Var.id
            && cell'.index = cell.index);
          check "same behaviour" true
            (not (M.Interp.control_flow_changed original replay)
            && original.M.Interp.outputs = replay.M.Interp.outputs)
      | _ -> Alcotest.fail "physical replay did not inject")
  | _ -> Alcotest.fail "original attack did not inject"

(* Golden rows, every field: a change in the attack attempt's RNG draw
   order or in either detector shows up here. *)
let test_dme_experiment_row () =
  let module D = Ipds_harness.Dme_experiment in
  let row = D.run ~attacks:20 ~holdout:8 (W.find "sshd") in
  let pp ppf (r : D.row) =
    Format.fprintf ppf
      "{%s attacks=%d cf=%d dme=%d ipds=%d diffs=%d holdout=%d overhead=%h}"
      r.workload r.attacks r.cf_changed r.dme_detected r.ipds_detected
      r.benign_diffs r.holdout r.overhead
  in
  Alcotest.check (Alcotest.testable pp ( = )) "sshd DME row"
    {
      D.workload = "sshd";
      attacks = 20;
      cf_changed = 7;
      dme_detected = 10;
      ipds_detected = 6;
      benign_diffs = 0;
      holdout = 8;
      overhead = 2.0;
    }
    row

let test_experiment_row () =
  let module E = Ipds_harness.Baseline_experiment in
  let row =
    E.run ~train_runs:20 ~holdout_runs:20 ~attacks:20 (W.find "httpd")
  in
  let pp ppf (r : E.row) =
    Format.fprintf ppf "{%s fp=%h ngram=%d ipds=%d cf=%d attacks=%d}"
      r.workload r.ngram_fp r.ngram_detected r.ipds_detected r.cf_changed
      r.attacks
  in
  Alcotest.check (Alcotest.testable pp ( = )) "httpd baseline row"
    {
      E.workload = "httpd";
      ngram_fp = 0.0;
      ngram_detected = 0;
      ipds_detected = 4;
      cf_changed = 9;
      attacks = 20;
    }
    row

let () =
  Alcotest.run "baseline"
    [
      ( "ngram",
        [
          Alcotest.test_case "basics" `Quick test_ngram_basics;
          Alcotest.test_case "window semantics" `Quick test_ngram_window_semantics;
          Alcotest.test_case "bad n" `Quick test_ngram_rejects_bad_n;
        ] );
      ( "traces",
        [
          Alcotest.test_case "collects" `Quick test_syscall_trace_collects;
          Alcotest.test_case "deterministic" `Quick test_syscall_trace_deterministic;
          Alcotest.test_case "accepts benign" `Quick test_model_accepts_benign;
        ] );
      ( "dme",
        [
          Alcotest.test_case "decorrelate shape" `Quick test_dme_decorrelate_shape;
          Alcotest.test_case "benign pairs agree" `Quick test_dme_benign_pairs_agree;
          Alcotest.test_case "divergence is canonical difference" `Quick
            test_dme_divergence_is_canonical_difference;
          Alcotest.test_case "physical replay matches logical" `Quick
            test_dme_physical_replay_matches_logical;
          Alcotest.test_case "experiment row" `Slow test_dme_experiment_row;
        ] );
      ( "experiment",
        [ Alcotest.test_case "row sanity" `Slow test_experiment_row ] );
    ]
