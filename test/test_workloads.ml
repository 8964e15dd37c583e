(* Tests for the server workload suite: compilation, termination,
   determinism, analyzability, and attack-surface sanity. *)

module Mir = Ipds_mir
module Core = Ipds_core
module M = Ipds_machine
module W = Ipds_workloads.Workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run ?tamper ?(seed = 7) p =
  M.Interp.run p
    {
      M.Interp.default_config with
      inputs = M.Input_script.random ~seed ();
      tamper;
    }

let test_eleven_servers () =
  check_int "eleven benchmarks" 11 (List.length W.all);
  let names = List.map (fun w -> w.W.name) W.all in
  List.iter
    (fun expected -> check (expected ^ " present") true (List.mem expected names))
    [
      "telnetd"; "wu-ftpd"; "xinetd"; "crond"; "sysklogd"; "atftpd"; "httpd";
      "sendmail"; "sshd"; "portmap"; "fwpolicyd";
    ]

let test_firewall_family () =
  (* canonical member: the default policy exercises every action code *)
  let fw = W.find "fwpolicyd" in
  let p = W.program fw in
  check "fwpolicyd validates" true (Mir.Validate.check p = []);
  (* generated members: distinct names, deterministic policies, and a
     spread of seeds that compile and terminate *)
  let a = W.firewall ~seed:1 ~nrules:6 and b = W.firewall ~seed:2 ~nrules:6 in
  check "family members have distinct names" true (a.W.name <> b.W.name);
  check "family generation is pure" true
    (String.equal a.W.source (W.firewall ~seed:1 ~nrules:6).W.source);
  for seed = 0 to 5 do
    let w = W.firewall ~seed ~nrules:(4 + seed) in
    let p = Ipds_minic.Minic.compile w.W.source in
    check (w.W.name ^ " validates") true (Mir.Validate.check p = []);
    let o = run ~seed p in
    match o.M.Interp.reason with
    | M.Interp.Exited _ -> ()
    | _ -> Alcotest.fail (w.W.name ^ " did not exit cleanly")
  done

let test_all_compile_and_terminate () =
  List.iter
    (fun w ->
      let p = W.program w in
      check (w.W.name ^ " validates") true (Mir.Validate.check p = []);
      for seed = 0 to 9 do
        let o = run ~seed p in
        match o.M.Interp.reason with
        | M.Interp.Exited _ ->
            check (w.W.name ^ " does some work") true (o.M.Interp.branches > 10)
        | M.Interp.Halted | M.Interp.Fault _ | M.Interp.Out_of_steps
        | M.Interp.Trapped _ ->
            Alcotest.fail (w.W.name ^ " did not exit cleanly")
      done)
    W.all

let test_runs_deterministic () =
  List.iter
    (fun w ->
      let p = W.program w in
      let o1 = run ~seed:3 p in
      let o2 = run ~seed:3 p in
      check (w.W.name ^ " deterministic") true
        (o1.M.Interp.outputs = o2.M.Interp.outputs
        && o1.M.Interp.branch_trace = o2.M.Interp.branch_trace))
    W.all

let test_every_server_analyzable () =
  List.iter
    (fun w ->
      let system = Core.System.build (W.program w) in
      check (w.W.name ^ " has checked branches") true
        (Core.System.checked_branch_count system > 3);
      check (w.W.name ^ " checks fewer than all") true
        (Core.System.checked_branch_count system
        <= Core.System.total_branch_count system))
    W.all

(* [W.system] is the process's one memo of built systems: a repeat, and
   explicit default options, reuse the first build.  A fresh family
   member keeps the memo cold whatever ran before. *)
let test_system_memo () =
  Ipds_artifact.Store.set_ambient_dir None;
  let w = W.firewall ~seed:44 ~nrules:3 in
  let b0 = Core.System.build_count () in
  let s1 = W.system w in
  let s2 = W.system w in
  let s3 = W.system ~options:Ipds_correlation.Analysis.default_options w in
  check "one system" true (s1 == s2 && s2 == s3);
  check_int "system.builds moved by one" 1 (Core.System.build_count () - b0)

let test_tamper_model_mapping () =
  check "wu-ftpd is format-string" true (W.tamper_model (W.find "wu-ftpd") = `Arbitrary_write);
  check "telnetd is overflow" true (W.tamper_model (W.find "telnetd") = `Stack_overflow)

let test_memory_resident_state_remains () =
  (* After promotion the session arrays must still be in memory —
     otherwise there is nothing for the attacks to corrupt. *)
  List.iter
    (fun w ->
      let p = W.program w in
      let main = Mir.Program.find_func_exn p "main" in
      check (w.W.name ^ " keeps arrays in memory") true
        (List.exists (fun (v : Mir.Var.t) -> v.size > 1) main.Mir.Func.locals))
    W.all

let test_detectable_attack_exists () =
  (* For each server there must exist SOME attack that IPDS detects —
     otherwise the benchmark is vacuous. *)
  List.iter
    (fun w ->
      let p = W.program w in
      let system = Core.System.build p in
      let model =
        match W.tamper_model w with
        | `Stack_overflow -> M.Tamper.Stack_overflow
        | `Arbitrary_write -> M.Tamper.Arbitrary_write
      in
      let detected = ref false in
      let seed = ref 0 in
      while (not !detected) && !seed < 150 do
        let checker = Core.System.new_checker system in
        let o =
          M.Interp.run p
            {
              M.Interp.default_config with
              inputs = M.Input_script.random ~seed:11 ();
              checker = Some checker;
              tamper =
                Some
                  {
                    M.Tamper.at_step = 60 + (!seed * 3);
                    site = M.Tamper.Mem_write { model; value = !seed mod 7 };
                    seed = !seed;
                  };
            }
        in
        if o.M.Interp.alarms <> [] then detected := true;
        incr seed
      done;
      check (w.W.name ^ " has a detectable attack") true !detected)
    W.all

let () =
  Alcotest.run "workloads"
    [
      ( "suite",
        [
          Alcotest.test_case "eleven servers" `Quick test_eleven_servers;
          Alcotest.test_case "firewall family" `Quick test_firewall_family;
          Alcotest.test_case "compile and terminate" `Quick test_all_compile_and_terminate;
          Alcotest.test_case "deterministic" `Quick test_runs_deterministic;
          Alcotest.test_case "analyzable" `Quick test_every_server_analyzable;
          Alcotest.test_case "tamper models" `Quick test_tamper_model_mapping;
          Alcotest.test_case "memory-resident state" `Quick test_memory_resident_state_remains;
          Alcotest.test_case "detectable attacks exist" `Slow test_detectable_attack_exists;
          Alcotest.test_case "system memo: one build" `Quick test_system_memo;
        ] );
    ]
