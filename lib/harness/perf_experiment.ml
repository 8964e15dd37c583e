module M = Ipds_machine
module P = Ipds_pipeline
module Core = Ipds_core
module W = Ipds_workloads.Workloads
module Pool = Ipds_parallel.Pool

type row = {
  workload : string;
  instructions : int;
  base_cycles : float;
  ipds_cycles : float;
  normalized : float;
  avg_detection_latency : float;
  spills : int;
  stall_cycles : float;
}

let measure ~seed ~repeats system =
  let program = system.Core.System.program in
  let base_cpu = P.Cpu.create ~system:None () in
  let ipds_cpu = P.Cpu.create ~system:(Some system) () in
  for i = 0 to repeats - 1 do
    let run_with cpu =
      ignore
        (M.Interp.run program
           {
             M.Interp.default_config with
             inputs = M.Input_script.random ~seed:(seed + i) ();
             sink = Some (P.Cpu.observer cpu);
             record_trace = false;
           })
    in
    run_with base_cpu;
    run_with ipds_cpu
  done;
  (P.Cpu.finish base_cpu, P.Cpu.finish ipds_cpu)

let run ?(seed = 42) ?(repeats = 5) (w : W.t) =
  let base, ipds = measure ~seed ~repeats (W.system w) in
  let stats =
    match ipds.P.Cpu.ipds with
    | Some s -> s
    | None -> invalid_arg "Perf_experiment: missing ipds stats"
  in
  {
    workload = w.W.name;
    instructions = ipds.P.Cpu.instructions;
    base_cycles = base.P.Cpu.cycles;
    ipds_cycles = ipds.P.Cpu.cycles;
    normalized =
      (if base.P.Cpu.cycles > 0. then ipds.P.Cpu.cycles /. base.P.Cpu.cycles
       else 1.);
    avg_detection_latency = stats.P.Cpu.avg_detection_latency;
    spills = stats.P.Cpu.spills;
    stall_cycles = stats.P.Cpu.stall_cycles;
  }

(* Simulated cycle counts are deterministic per workload, so the fan-out
   is safe for any job count. *)
let run_all ?seed ?repeats ?pool () = Pool.map' pool (run ?seed ?repeats) W.all

let render rows =
  let mean fmt f =
    match Stats.mean (List.map f rows) with
    | None -> "n/a"
    | Some m -> fmt m
  in
  let body =
    List.map
      (fun r ->
        [
          r.workload;
          string_of_int r.instructions;
          Printf.sprintf "%.0f" r.base_cycles;
          Printf.sprintf "%.0f" r.ipds_cycles;
          Printf.sprintf "%.4f" r.normalized;
          Table.f1 r.avg_detection_latency;
          string_of_int r.spills;
        ])
      rows
  in
  let avg =
    [
      "AVERAGE";
      "";
      "";
      "";
      mean (Printf.sprintf "%.4f") (fun r -> r.normalized);
      mean Table.f1 (fun r -> r.avg_detection_latency);
      "";
    ]
  in
  Table.render
    ~header:
      [
        "benchmark"; "instr"; "base cycles"; "ipds cycles"; "normalized";
        "latency"; "spills";
      ]
    (body @ [ avg ])

let to_json =
  let module J = Ipds_obs.Json in
  Table.rows_json (fun r ->
      [
        ("workload", J.String r.workload);
        ("instructions", J.Int r.instructions);
        ("base_cycles", J.Float r.base_cycles);
        ("ipds_cycles", J.Float r.ipds_cycles);
        ("normalized", J.Float r.normalized);
        ("avg_detection_latency", J.Float r.avg_detection_latency);
        ("spills", J.Int r.spills);
      ])
