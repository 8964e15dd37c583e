module A = Attack_experiment
module W = Ipds_workloads.Workloads
module Refine = Ipds_correlation.Refine
module Pass = Ipds_pass.Pass
module Reg = Ipds_obs.Registry

type lift = {
  workload : string;
  attacks : int;
  detected_off : int;
  detected_on : int;
}

type result = {
  attacks : int;
  seed : int;
  off : A.summary;
  on : A.summary;
  lift : lift list;
  refine : (string * int) list;
  functions : (string * string * Refine.stats) list;
  pass_cost_off : Pass.report_row list;
  pass_cost_on : Pass.report_row list;
}

let refine_snapshot () =
  List.map
    (fun n -> (n, Reg.counter_value (Reg.counter n)))
    [ "refine.iterations"; "refine.edges_pruned"; "refine.correlations_gained" ]

let run ?(attacks = 100) ?(seed = 2006) ?pool () =
  let off_variant, on_variant =
    match Sweep.precision with
    | [ off; on ] -> (off, on)
    | _ -> invalid_arg "Sweep.precision is not an off/on pair"
  in
  (* the campaign's summary, and only the passes it moved *)
  let campaign v =
    let rows, passes =
      Compile_time.with_passes (fun () -> Sweep.run ~attacks ~seed ?pool [ v ])
    in
    ( (List.hd rows).Sweep.summary,
      List.filter
        (fun (p : Pass.report_row) -> p.Pass.r_units <> 0 || p.Pass.r_seconds >= 1e-9)
        passes )
  in
  let off, pass_cost_off = campaign off_variant in
  let r0 = refine_snapshot () in
  let on, pass_cost_on = campaign on_variant in
  let r1 = refine_snapshot () in
  let lift =
    List.map2
      (fun (o : A.row) (n : A.row) ->
        assert (String.equal o.A.workload n.A.workload);
        {
          workload = o.A.workload;
          attacks = o.A.attacks;
          detected_off = o.A.detected;
          detected_on = n.A.detected;
        })
      off.A.rows on.A.rows
  in
  (* the systems are memoised, so this reuses the builds the on
     campaign already did *)
  let functions =
    List.concat_map
      (fun w ->
        List.filter_map
          (fun (fname, (info : Ipds_core.System.func_info)) ->
            Option.map (fun s -> (w.W.name, fname, s)) info.Ipds_core.System.refine)
          (on_variant.Sweep.system w).Ipds_core.System.funcs)
      W.all
  in
  {
    attacks;
    seed;
    off;
    on;
    lift;
    refine = List.map2 (fun (n, v0) (_, v1) -> (n, v1 - v0)) r0 r1;
    functions;
    pass_cost_off;
    pass_cost_on;
  }

let workloads_lifted r =
  List.length (List.filter (fun l -> l.detected_on > l.detected_off) r.lift)

let render r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-12s %9s %9s %6s\n" "workload" "off" "on" "lift";
  List.iter
    (fun l ->
      Printf.bprintf b "%-12s %5d/%-3d %5d/%-3d %+6d\n" l.workload l.detected_off
        l.attacks l.detected_on l.attacks
        (l.detected_on - l.detected_off))
    r.lift;
  Printf.bprintf b
    "detection lifted on %d/%d workloads; avg detected %.1f%% -> %.1f%%\n"
    (workloads_lifted r) (List.length r.lift)
    (100. *. r.off.A.avg_detected)
    (100. *. r.on.A.avg_detected);
  List.iter (fun (n, v) -> Printf.bprintf b "  %s: %d\n" n v) r.refine;
  Buffer.add_string b "per-pass cost of the precision build:\n";
  List.iter
    (fun (p : Pass.report_row) ->
      Printf.bprintf b "  %-24s %6d units  %8.3fs\n" p.Pass.r_name p.Pass.r_units
        p.Pass.r_seconds)
    r.pass_cost_on;
  let iterations = List.map (fun (_, _, s) -> s.Refine.iterations) r.functions in
  Printf.bprintf b "iterations to fixpoint:%s"
    (String.concat ""
       (List.map
          (fun it ->
            Printf.sprintf "  %d iteration%s x %d functions" it
              (if it = 1 then "" else "s")
              (List.length (List.filter (( = ) it) iterations)))
          (List.sort_uniq compare iterations)));
  Buffer.contents b

module J = Ipds_obs.Json

let stable_json r =
  J.Obj
    [
      ("attacks", J.Int r.attacks);
      ("seed", J.Int r.seed);
      ("off", A.summary_json r.off);
      ("on", A.summary_json r.on);
      ( "lift",
        Table.rows_json
          (fun l ->
            [
              ("workload", J.String l.workload);
              ("attacks", J.Int l.attacks);
              ("detected_off", J.Int l.detected_off);
              ("detected_on", J.Int l.detected_on);
              ("lift", J.Int (l.detected_on - l.detected_off));
            ])
          r.lift );
      ("workloads_lifted", J.Int (workloads_lifted r));
      ("refine", J.Obj (List.map (fun (n, v) -> (n, J.Int v)) r.refine));
      ( "functions",
        Table.rows_json
          (fun (w, fname, (s : Refine.stats)) ->
            [
              ("workload", J.String w);
              ("function", J.String fname);
              ("iterations", J.Int s.Refine.iterations);
              ("edges_pruned", J.Int s.Refine.edges_pruned);
              ("total_directions", J.Int s.Refine.total_directions);
              ("correlations_before", J.Int s.Refine.correlations_before);
              ("correlations_after", J.Int s.Refine.correlations_after);
            ])
          r.functions );
    ]

let to_json r =
  let pass_cost =
    Table.rows_json (fun (p : Pass.report_row) ->
        [
          ("pass", J.String p.Pass.r_name);
          ("units", J.Int p.Pass.r_units);
          ("wall_seconds", J.Float p.Pass.r_seconds);
        ])
  in
  J.Obj
    [
      (* identical for every pool size *)
      ("stable", stable_json r);
      ( "timing_unstable",
        J.Obj
          [
            ("pass_cost_off", pass_cost r.pass_cost_off);
            ("pass_cost_on", pass_cost r.pass_cost_on);
          ] );
    ]
