module A = Attack_experiment
module Json = Ipds_obs.Json
module Pool = Ipds_parallel.Pool

type config = {
  universes : A.universe list;
  attacks : int;
  seed : int;
  pop_members : int;
  pop_attacks : int;
  dme_attacks : int;
  dme_holdout : int;
}

let default_config =
  {
    universes = [ `Mem; `Cond_flip; `Insn_skip ];
    attacks = 40;
    seed = 2006;
    pop_members = 8;
    pop_attacks = 6;
    dme_attacks = 40;
    dme_holdout = 12;
  }

type result = {
  config : config;
  workload_universes : (A.universe * A.summary) list;
  pop_distinct : int;
  pop_universes : (A.universe * A.summary) list;
  dme : Dme_experiment.row list;
}

let run ?(config = default_config) ?pool () =
  let workload_universes =
    List.map
      (fun u ->
        (u, A.run_all ~universe:u ~attacks:config.attacks ~seed:config.seed ?pool ()))
      config.universes
  in
  let members =
    Ipds_gen.Gen.population ?pool ~seed:config.seed ~count:config.pop_members ()
  in
  let pop_distinct = List.length (List.sort_uniq String.compare members) in
  let programs =
    List.mapi
      (fun i src ->
        ( Printf.sprintf "gen-%d-%03d" config.seed i,
          Ipds_minic.Minic.compile src ))
      members
  in
  let pop_universes =
    List.map
      (fun u ->
        let rows =
          List.map
            (fun (name, p) ->
              A.campaign ?pool ~attacks:config.pop_attacks ~seed:config.seed
                ~model:(A.model_of_universe u) ~name p)
            programs
        in
        (u, A.summarize rows))
      config.universes
  in
  let dme =
    Dme_experiment.run_all ~attacks:config.dme_attacks
      ~holdout:config.dme_holdout ~seed:config.seed ?pool ()
  in
  { config; workload_universes; pop_distinct; pop_universes; dme }

let injected_total r =
  let of_summaries l =
    List.fold_left
      (fun acc (_, (s : A.summary)) ->
        List.fold_left (fun acc (row : A.row) -> acc + row.A.attacks) acc s.A.rows)
      0 l
  in
  of_summaries r.workload_universes
  + of_summaries r.pop_universes
  + List.fold_left
      (fun acc (row : Dme_experiment.row) -> acc + row.Dme_experiment.attacks)
      0 r.dme

let summary_json (s : A.summary) =
  Json.Obj
    [
      ( "rows",
        Json.List
          (List.map
             (fun (r : A.row) ->
               Json.Obj
                 [
                   ("workload", Json.String r.A.workload);
                   ("attacks", Json.Int r.A.attacks);
                   ("cf_changed", Json.Int r.A.cf_changed);
                   ("detected", Json.Int r.A.detected);
                 ])
             s.A.rows) );
      ("avg_cf_changed", Json.Float s.A.avg_cf_changed);
      ("avg_detected", Json.Float s.A.avg_detected);
      ("detected_given_cf", Json.Float s.A.detected_given_cf);
    ]

let universe_json (u, s) =
  Json.Obj
    [
      ("universe", Json.String (A.universe_name u));
      (* campaigns raise False_positive on any benign alarm, so a report
         that exists at all certifies a clean benign sweep *)
      ("false_positives", Json.Int 0);
      ("summary", summary_json s);
    ]

let dme_json rows =
  Json.List
    (List.map
       (fun (r : Dme_experiment.row) ->
         let open Dme_experiment in
         Json.Obj
           [
             ("workload", Json.String r.workload);
             ("attacks", Json.Int r.attacks);
             ("cf_changed", Json.Int r.cf_changed);
             ("dme_detected", Json.Int r.dme_detected);
             ("ipds_detected", Json.Int r.ipds_detected);
             ("benign_diffs", Json.Int r.benign_diffs);
             ("holdout", Json.Int r.holdout);
             ("overhead", Json.Float r.overhead);
           ])
       rows)

let stable_json r =
  Json.Obj
    [
      ("seed", Json.Int r.config.seed);
      ("attacks_per_workload", Json.Int r.config.attacks);
      ("universes", Json.List (List.map universe_json r.workload_universes));
      ( "population",
        Json.Obj
          [
            ("seed", Json.Int r.config.seed);
            ("members", Json.Int r.config.pop_members);
            ("distinct", Json.Int r.pop_distinct);
            ("attacks_per_member", Json.Int r.config.pop_attacks);
            ("universes", Json.List (List.map universe_json r.pop_universes));
          ] );
      ( "dme",
        Json.Obj
          [
            ("attacks_per_workload", Json.Int r.config.dme_attacks);
            ("holdout", Json.Int r.config.dme_holdout);
            ("rows", dme_json r.dme);
          ] );
    ]
