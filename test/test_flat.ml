(* Differential tests for the flat-image checker: {!Ipds_core.Checker}
   (arena frames, packed verdicts, locally accumulated counters) over
   {!Ipds_core.Image.build}'s images against {!Checker_ref}, the
   preserved pre-flat implementation, over list tables built
   independently from the same analysis results by {!Tables_ref}.  The
   two must agree per-branch (checked / alarm / BAT nodes), on the final
   alarm list, and on the stable [checker.*] counter totals — on random
   programs (tampered and untampered) and on all ten workloads.  Also
   pins the hot path's zero-minor-allocation contract, the typed
   protocol-violation verdicts, and stable-metric equality across
   [--jobs 1] and [--jobs 4]. *)

module Core = Ipds_core
module M = Ipds_machine
module W = Ipds_workloads.Workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- recording and replaying event streams ---------- *)

type ev = Call of string | Ret | Branch of int * bool

let record_events ?tamper ?(max_steps = 3000) ~seed program =
  let evs = ref [] in
  ignore
    (M.Interp.run program
       {
         M.Interp.default_config with
         max_steps;
         inputs = M.Input_script.random ~seed ();
         record_trace = false;
         tamper;
         sink =
           Some
             (fun (e : M.Event.t) ->
               match e.M.Event.kind with
               | M.Event.Call { callee } -> evs := Call callee :: !evs
               | M.Event.Ret -> evs := Ret :: !evs
               | M.Event.Branch { taken; _ } ->
                   evs := Branch (e.M.Event.pc, taken) :: !evs
               | _ -> ());
       });
  List.rev !evs

(* What both implementations report for one committed branch. *)
type branch_obs = {
  b_checked : bool;
  b_alarm : bool;
  b_nodes : int;
}

(* The stable counter cells both checkers feed (the names dedup onto the
   same registry cells, which is why the flat run must be measured
   before the reference replay). *)
let counter_names =
  [
    "checker.calls";
    "checker.returns";
    "checker.branches";
    "checker.checked";
    "checker.verdict_ok";
    "checker.verdict_alarm";
    "checker.bat_updates";
  ]

let registry_values () =
  List.map
    (fun n -> Ipds_obs.Registry.counter_value (Ipds_obs.Registry.counter n))
    counter_names

let replay_flat system evs =
  let c = Core.System.new_checker system in
  let before = registry_values () in
  let obs =
    List.filter_map
      (fun ev ->
        match ev with
        | Call f ->
            if Core.System.mem system f then ignore (Core.Checker.on_call c f);
            None
        | Ret ->
            ignore (Core.Checker.on_return c);
            None
        | Branch (pc, taken) ->
            let v = Core.Checker.on_branch c ~pc ~taken in
            Some
              {
                b_checked = Core.Checker.verdict_checked v;
                b_alarm = Core.Checker.verdict_alarm v;
                b_nodes = Core.Checker.verdict_bat_nodes v;
              })
      evs
  in
  Core.Checker.flush c;
  let after = registry_values () in
  (c, obs, List.map2 (fun a b -> a - b) after before)

let replay_ref system evs =
  let tables = Tables_ref.of_system system in
  let c = Checker_ref.create ~lookup:(fun f -> List.assoc f tables) in
  let obs =
    List.filter_map
      (fun ev ->
        match ev with
        | Call f ->
            if Core.System.mem system f then
              ignore (Checker_ref.on_call c f);
            None
        | Ret ->
            (* the flat checker refuses a frameless return without
               raising; mirror that here *)
            if Checker_ref.depth c > 0 then Checker_ref.on_return c;
            None
        | Branch (pc, taken) ->
            if Checker_ref.depth c = 0 then
              (* the flat checker's protocol-violation verdict *)
              Some { b_checked = false; b_alarm = false; b_nodes = 0 }
            else
              let i = Checker_ref.on_branch c ~pc ~taken in
              Some
                {
                  b_checked = i.Checker_ref.was_checked;
                  b_alarm =
                    (match i.Checker_ref.alarm with
                    | Some _ -> true
                    | None -> false);
                  b_nodes = i.Checker_ref.bat_nodes;
                })
      evs
  in
  (c, obs)

let runs_agree system evs =
  let flat, fobs, deltas = replay_flat system evs in
  let refc, robs = replay_ref system evs in
  let counts = Checker_ref.counts refc in
  fobs = robs
  && Core.Checker.alarms flat = Checker_ref.alarms refc
  && Core.Checker.branches_seen flat = Checker_ref.branches_seen refc
  && deltas
     = [
         counts.Checker_ref.calls;
         counts.Checker_ref.returns;
         counts.Checker_ref.branches;
         counts.Checker_ref.checked;
         counts.Checker_ref.verdict_ok;
         counts.Checker_ref.verdict_alarm;
         counts.Checker_ref.bat_updates;
       ]

(* Same comparison, with labelled assertions for the workload suite. *)
let check_runs label system evs =
  let flat, fobs, deltas = replay_flat system evs in
  let refc, robs = replay_ref system evs in
  check_int (label ^ ": committed branches") (List.length robs)
    (List.length fobs);
  check (label ^ ": per-branch verdicts") true (fobs = robs);
  check (label ^ ": alarm lists") true
    (Core.Checker.alarms flat = Checker_ref.alarms refc);
  check_int
    (label ^ ": branches_seen")
    (Checker_ref.branches_seen refc)
    (Core.Checker.branches_seen flat);
  let counts = Checker_ref.counts refc in
  List.iter2
    (fun name (delta, expect) ->
      check_int (label ^ ": " ^ name) expect delta)
    counter_names
    (List.combine deltas
       [
         counts.Checker_ref.calls;
         counts.Checker_ref.returns;
         counts.Checker_ref.branches;
         counts.Checker_ref.checked;
         counts.Checker_ref.verdict_ok;
         counts.Checker_ref.verdict_alarm;
         counts.Checker_ref.bat_updates;
       ])

(* ---------- property: random programs, tampered + untampered ---------- *)

let tamper_of_bits bits =
  if bits mod 3 = 0 then None
  else
    Some
      {
        M.Tamper.at_step = 1 + (bits mod 400);
        site =
          (match bits mod 4 with
          | 0 -> M.Tamper.Mem_write
                   { model = M.Tamper.Arbitrary_write; value = bits mod 256 }
          | 1 -> M.Tamper.Mem_write
                   { model = M.Tamper.Stack_overflow; value = bits mod 256 }
          | 2 -> M.Tamper.Cond_flip
          | _ -> M.Tamper.Insn_skip);
        seed = bits;
      }

let prop_flat_matches_ref_minic =
  QCheck2.Test.make
    ~name:"flat checker matches reference on MiniC (tampered + untampered)"
    ~count:80
    QCheck2.Gen.(tup3 Gen.minic_program (int_bound 1000) (int_bound 100000))
    (fun (program, seed, bits) ->
      let sys = Core.System.build program in
      let evs = record_events ?tamper:(tamper_of_bits bits) ~seed program in
      runs_agree sys evs)

let prop_flat_matches_ref_mir =
  QCheck2.Test.make ~name:"flat checker matches reference on raw MIR"
    ~count:60
    QCheck2.Gen.(pair Gen.mir_program (int_bound 1000))
    (fun (program, seed) ->
      let sys = Core.System.build program in
      let evs = record_events ~seed program in
      runs_agree sys evs)

(* ---------- all ten workloads, tampered + untampered ---------- *)

let test_workloads_differential () =
  let plans =
    [
      None;
      Some
        {
          M.Tamper.at_step = 40;
          site = M.Tamper.Mem_write { model = M.Tamper.Arbitrary_write; value = 99 };
          seed = 5;
        };
      Some
        {
          M.Tamper.at_step = 25;
          site = M.Tamper.Mem_write { model = M.Tamper.Stack_overflow; value = 77 };
          seed = 11;
        };
      Some { M.Tamper.at_step = 30; site = M.Tamper.Cond_flip; seed = 0 };
      Some { M.Tamper.at_step = 30; site = M.Tamper.Insn_skip; seed = 0 };
    ]
  in
  List.iter
    (fun w ->
      let sys = W.system w in
      let program = W.program w in
      List.iteri
        (fun i tamper ->
          let evs = record_events ?tamper ~max_steps:20_000 ~seed:42 program in
          check_runs (Printf.sprintf "%s/%d" w.W.name i) sys evs)
        plans)
    W.all

(* ---------- zero minor allocation on the warm path ---------- *)

(* Replay a recorded workload stream through a warm checker, calling
   by name as the interpreter and the server do: the second pass reuses
   the grown arena, so an alarm-free replay must allocate no minor
   words. *)
let test_zero_minor_allocation () =
  let w = List.hd W.all in
  let sys = W.system w in
  let evs = record_events ~max_steps:20_000 ~seed:7 (W.program w) in
  let n = List.length evs in
  let ops = Array.make (max 1 n) (-1) and args = Array.make (max 1 n) 0 in
  let callees = Array.make (max 1 n) "" in
  List.iteri
    (fun i ev ->
      match ev with
      | Call f when Core.System.mem sys f ->
          ops.(i) <- 0;
          callees.(i) <- f
      | Call _ -> ()
      | Ret -> ops.(i) <- 1
      | Branch (pc, taken) ->
          ops.(i) <- 2;
          args.(i) <- (pc lsl 1) lor Bool.to_int taken)
    evs;
  let c = Core.System.new_checker sys in
  let replay () =
    for i = 0 to n - 1 do
      match Array.unsafe_get ops i with
      | 0 -> ignore (Core.Checker.on_call c (Array.unsafe_get callees i))
      | 1 -> ignore (Core.Checker.on_return c)
      | 2 ->
          let a = Array.unsafe_get args i in
          ignore (Core.Checker.on_branch c ~pc:(a lsr 1) ~taken:(a land 1 = 1))
      | _ -> ()
    done
  in
  replay ();
  check_int "warm-up replay raised no alarms" 0 (Core.Checker.alarm_count c);
  (* enough warm replays that even one word per call or branch would
     blow the bound (the stream holds only a handful of calls) *)
  let rounds = 64 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    replay ()
  done;
  let words = int_of_float (Gc.minor_words () -. before) in
  check
    (Printf.sprintf "%d warm replays of %d events allocated %d minor words"
       rounds n words)
    true (words <= 64)

(* ---------- typed protocol violations and O(1) depth ---------- *)

let test_protocol_and_depth () =
  let w = List.hd W.all in
  let sys = W.system w in
  let fname = fst (List.hd sys.Core.System.funcs) in
  let c = Core.System.new_checker sys in
  check_int "fresh depth" 0 (Core.Checker.depth c);
  check "frameless return is refused" false (Core.Checker.on_return c);
  check_int "refused return leaves depth alone" 0 (Core.Checker.depth c);
  let v = Core.Checker.on_branch c ~pc:0x1000 ~taken:true in
  check "frameless branch is a violation" true (Core.Checker.verdict_violation v);
  check "violation is not ok" false (Core.Checker.verdict_ok v);
  check "violation is not checked" false (Core.Checker.verdict_checked v);
  check "violation is not an alarm" false (Core.Checker.verdict_alarm v);
  check_int "violation commits no branch" 0 (Core.Checker.branches_seen c);
  for i = 1 to 64 do
    ignore (Core.Checker.on_call c fname);
    check_int "depth tracks pushes" i (Core.Checker.depth c)
  done;
  for i = 63 downto 0 do
    check "pop succeeds" true (Core.Checker.on_return c);
    check_int "depth tracks pops" i (Core.Checker.depth c)
  done;
  check "empty again refuses" false (Core.Checker.on_return c)

(* ---------- stable metrics are jobs-invariant ---------- *)

let test_jobs_stable_metrics () =
  let snap jobs =
    Ipds_obs.Registry.reset ();
    Ipds_parallel.Pool.with_opt ~jobs (fun pool ->
        let module Sweep = Ipds_harness.Sweep in
        ignore (Sweep.run ~attacks:2 ~seed:13 ?pool [ Sweep.universe `Mem ]));
    Ipds_obs.Registry.snapshot ~stability:`Stable ()
  in
  let s1 = snap 1 in
  let s4 = snap 4 in
  check "stable metrics identical under --jobs 1 and --jobs 4" true (s1 = s4)

let () =
  Alcotest.run "flat"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_flat_matches_ref_minic;
          QCheck_alcotest.to_alcotest prop_flat_matches_ref_mir;
          Alcotest.test_case "all workloads, tampered + untampered" `Quick
            test_workloads_differential;
        ] );
      ( "hot path",
        [
          Alcotest.test_case "warm replay allocates no minor words" `Quick
            test_zero_minor_allocation;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "typed violations, O(1) depth" `Quick
            test_protocol_and_depth;
        ] );
      ( "stable metrics",
        [
          Alcotest.test_case "jobs 1 vs 4" `Quick test_jobs_stable_metrics;
        ] );
    ]
