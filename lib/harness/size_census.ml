module Core = Ipds_core
module W = Ipds_workloads.Workloads

type row = {
  workload : string;
  functions : int;
  avg_bsv_bits : float;
  avg_bcv_bits : float;
  avg_bat_bits : float;
}

let run (w : W.t) =
  let system = W.system w in
  let stats = Core.System.size_stats system in
  {
    workload = w.W.name;
    functions = List.length stats.Core.System.per_func;
    avg_bsv_bits = stats.Core.System.avg_bsv_bits;
    avg_bcv_bits = stats.Core.System.avg_bcv_bits;
    avg_bat_bits = stats.Core.System.avg_bat_bits;
  }

let run_all () = List.map run W.all

let render rows =
  let mean f =
    match Stats.mean (List.map f rows) with
    | None -> "n/a"
    | Some m -> Table.f1 m
  in
  let body =
    List.map
      (fun r ->
        [
          r.workload;
          string_of_int r.functions;
          Table.f1 r.avg_bsv_bits;
          Table.f1 r.avg_bcv_bits;
          Table.f1 r.avg_bat_bits;
        ])
      rows
  in
  let avg =
    [
      "AVERAGE";
      "";
      mean (fun r -> r.avg_bsv_bits);
      mean (fun r -> r.avg_bcv_bits);
      mean (fun r -> r.avg_bat_bits);
    ]
  in
  Table.render
    ~header:[ "benchmark"; "funcs"; "BSV bits"; "BCV bits"; "BAT bits" ]
    (body @ [ avg ])

let to_json =
  let module J = Ipds_obs.Json in
  Table.rows_json (fun r ->
      [
        ("workload", J.String r.workload);
        ("functions", J.Int r.functions);
        ("avg_bsv_bits", J.Float r.avg_bsv_bits);
        ("avg_bcv_bits", J.Float r.avg_bcv_bits);
        ("avg_bat_bits", J.Float r.avg_bat_bits);
      ])
