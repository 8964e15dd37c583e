(* Monitor a synthetic server under IPDS: timing model attached, benign
   traffic, then an attack campaign — a miniature of the paper's whole
   evaluation on one benchmark.

     dune exec examples/server_monitor.exe -- [server-name]   (default sshd) *)

module Mir = Ipds_mir
module Core = Ipds_core
module M = Ipds_machine
module P = Ipds_pipeline
module W = Ipds_workloads.Workloads

let () =
  let name =
    match Array.to_list Sys.argv with
    | _ :: n :: _ when n <> "--" -> n
    | _ :: "--" :: n :: _ -> n
    | _ -> "sshd"
  in
  let w =
    try W.find name
    with Not_found ->
      Printf.eprintf "unknown server %s; try one of: %s\n" name
        (String.concat ", " (List.map (fun w -> w.W.name) W.all));
      exit 2
  in
  Printf.printf "=== %s: %s ===\n" w.W.name w.W.description;

  let program = W.program w in
  let system = Core.System.build program in
  let stats = Core.System.size_stats system in
  Printf.printf "tables: %d/%d branches checked; avg bits BSV %.0f BCV %.0f BAT %.0f\n"
    (Core.System.checked_branch_count system)
    (Core.System.total_branch_count system)
    stats.Core.System.avg_bsv_bits stats.Core.System.avg_bcv_bits
    stats.Core.System.avg_bat_bits;

  (* benign run with the timing model attached *)
  let base_cpu = P.Cpu.create ~system:None () in
  let ipds_cpu = P.Cpu.create ~system:(Some system) () in
  let drive cpu =
    ignore
      (M.Interp.run program
         {
           M.Interp.default_config with
           inputs = M.Input_script.random ~seed:2006 ();
           sink = Some (P.Cpu.observer cpu);
         })
  in
  drive base_cpu;
  drive ipds_cpu;
  let base = P.Cpu.finish base_cpu in
  let ipds = P.Cpu.finish ipds_cpu in
  Printf.printf "timing: baseline %.0f cycles, with IPDS %.0f (x%.4f)\n"
    base.P.Cpu.cycles ipds.P.Cpu.cycles
    (ipds.P.Cpu.cycles /. base.P.Cpu.cycles);
  (match ipds.P.Cpu.ipds with
  | Some s ->
      Printf.printf
        "ipds engine: %d verifies, %d updates, avg detection latency %.1f cycles\n"
        s.P.Cpu.verifies s.P.Cpu.updates s.P.Cpu.avg_detection_latency
  | None -> ());

  (* attack campaign *)
  let row = Ipds_harness.Attack_experiment.run ~attacks:100 w in
  Printf.printf
    "attacks: %d injected, %d changed control flow, %d detected (%.0f%% of cf-changing)\n"
    row.Ipds_harness.Attack_experiment.attacks
    row.Ipds_harness.Attack_experiment.cf_changed
    row.Ipds_harness.Attack_experiment.detected
    (100.
    *. float_of_int row.Ipds_harness.Attack_experiment.detected
    /. float_of_int (max 1 row.Ipds_harness.Attack_experiment.cf_changed))
