module M = Ipds_machine
module P = Ipds_pipeline
module Core = Ipds_core
module W = Ipds_workloads.Workloads

type row = {
  period_cycles : int;
  switches : int;
  ipds_cycles : float;
  plain_ipds_cycles : float;
  overhead : float;
}

let run (w : W.t) =
  let system = W.system w in
  let program = system.Core.System.program in
  let measure ?ctx_switch_period () =
    let cpu = P.Cpu.create ?ctx_switch_period ~system:(Some system) () in
    for i = 0 to 39 do
      ignore
        (M.Interp.run program
           {
             M.Interp.default_config with
             inputs = M.Input_script.random ~seed:(42 + i) ();
             sink = Some (P.Cpu.observer cpu);
             record_trace = false;
           })
    done;
    P.Cpu.finish cpu
  in
  let plain = measure () in
  List.map
    (fun period ->
      let r = measure ~ctx_switch_period:(float_of_int period) () in
      let switches =
        match r.P.Cpu.ipds with
        | Some s -> s.P.Cpu.context_switches
        | None -> 0
      in
      {
        period_cycles = period;
        switches;
        ipds_cycles = r.P.Cpu.cycles;
        plain_ipds_cycles = plain.P.Cpu.cycles;
        overhead = r.P.Cpu.cycles /. plain.P.Cpu.cycles;
      })
    [ 2_000; 5_000; 10_000; 25_000 ]

let render rows =
  Table.render
    ~header:[ "switch period"; "switches"; "cycles"; "vs no-switch" ]
    (List.map
       (fun r ->
         [
           string_of_int r.period_cycles;
           string_of_int r.switches;
           Printf.sprintf "%.0f" r.ipds_cycles;
           Printf.sprintf "%.4f" r.overhead;
         ])
       rows)

let to_json =
  let module J = Ipds_obs.Json in
  Table.rows_json (fun r ->
      [
        ("period_cycles", J.Int r.period_cycles);
        ("switches", J.Int r.switches);
        ("overhead", J.Float r.overhead);
      ])
