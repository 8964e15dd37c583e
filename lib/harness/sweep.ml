module Core = Ipds_core
module Corr = Ipds_correlation
module W = Ipds_workloads.Workloads
module Pool = Ipds_parallel.Pool

type variant = {
  label : string;
  system : W.t -> Core.System.t;
  model : W.t -> Attack_experiment.model;
}

type row = {
  label : string;
  summary : Attack_experiment.summary;
  checked_branches : int;
  total_branches : int;
  avg_bat_bits : float option;
}

let run_variant ?attacks ?seed ?pool (v : variant) =
  let per_workload =
    Pool.map' pool
      (fun w ->
        let system = v.system w in
        ( Attack_experiment.campaign ?pool ?attacks ?seed ~model:(v.model w)
            ~name:w.W.name system,
          system ))
      W.all
  in
  let systems = List.map snd per_workload in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 systems in
  {
    label = v.label;
    summary = Attack_experiment.summarize (List.map fst per_workload);
    checked_branches = sum Core.System.checked_branch_count;
    total_branches = sum Core.System.total_branch_count;
    avg_bat_bits =
      Stats.mean
        (List.map
           (fun s -> (Core.System.size_stats s).Core.System.avg_bat_bits)
           systems);
  }

let run ?attacks ?seed ?pool variants =
  List.map (run_variant ?attacks ?seed ?pool) variants

let universe u =
  {
    label = Attack_experiment.universe_name u;
    system = (fun w -> W.system w);
    model = (fun w -> Attack_experiment.model_of_universe ~workload:w u);
  }

let own_class w = Attack_experiment.model_of_universe ~workload:w `Mem
let variant label system = { label; system; model = own_class }
let with_options label options = variant label (fun w -> W.system ~options w)
let base = Corr.Analysis.default_options

let ablation =
  [
    with_options "full" base;
    with_options "no-load-load" { base with Corr.Analysis.load_load = false };
    with_options "no-store-load" { base with Corr.Analysis.store_load = false };
    with_options "no-affine" { base with Corr.Analysis.affine_tracing = false };
    with_options "precise-globals"
      { base with Corr.Analysis.summary_mode = `Precise_globals };
  ]

(* O0/O1 are memoised (and cached on disk) by Workloads; the O2 pipeline
   is built here, once per workload: [run_variant] asks for each
   workload's system once, and no caller runs [opt_levels] twice in one
   process. *)
let o2 w =
  Core.System.build
    (Ipds_opt.Promote.program
       (Ipds_opt.Passes.optimize (W.program ~promote:false w)))

let opt_levels =
  [
    variant "O0 (all memory)" (fun w -> W.system ~promote:false w);
    variant "O1 (promotion)" (fun w -> W.system w);
    variant "O2 (opt+promotion)" o2;
  ]

let models =
  List.filter_map
    (fun (label, model) ->
      match model with
      | `Stack_overflow | `Arbitrary_write ->
          Some { label; system = (fun w -> W.system w); model = (fun _ -> model) }
      | `Cond_flip | `Insn_skip -> None)
    Attack_experiment.models

let precision =
  [
    with_options "off" base;
    with_options "on"
      { base with Corr.Analysis.precision = Corr.Analysis.precision_on };
  ]

let render rows =
  Table.render
    ~header:
      [
        "variant"; "cf-changed"; "detected"; "detected|cf"; "checked/total";
        "avg BAT bits";
      ]
    (List.map
       (fun r ->
         let s = r.summary in
         let pct x =
           if s.Attack_experiment.rows = [] then "n/a" else Table.pct x
         in
         [
           r.label;
           pct s.Attack_experiment.avg_cf_changed;
           pct s.Attack_experiment.avg_detected;
           pct s.Attack_experiment.detected_given_cf;
           Printf.sprintf "%d/%d" r.checked_branches r.total_branches;
           Option.fold ~none:"n/a" ~some:Table.f1 r.avg_bat_bits;
         ])
       rows)

let to_json =
  let module J = Ipds_obs.Json in
  Table.rows_json (fun r ->
      [
        ("variant", J.String r.label);
        ("summary", Attack_experiment.summary_json r.summary);
        ("checked_branches", J.Int r.checked_branches);
        ("total_branches", J.Int r.total_branches);
        ("avg_bat_bits", Option.fold ~none:J.Null ~some:(fun b -> J.Float b) r.avg_bat_bits);
      ])
