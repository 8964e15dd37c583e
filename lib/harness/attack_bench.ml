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
  wall_seconds : float;
}

let run ?(config = default_config) ?pool () =
  let t0 = Unix.gettimeofday () in
  let workload_universes =
    List.map2
      (fun u (row : Sweep.row) -> (u, row.Sweep.summary))
      config.universes
      (Sweep.run ~attacks:config.attacks ~seed:config.seed ?pool
         (List.map Sweep.universe config.universes))
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
  {
    config;
    workload_universes;
    pop_distinct;
    pop_universes;
    dme;
    wall_seconds = Unix.gettimeofday () -. t0;
  }

let injected_total r =
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  sum
    (fun (_, (s : A.summary)) -> sum (fun (row : A.row) -> row.A.attacks) s.A.rows)
    (r.workload_universes @ r.pop_universes)
  + sum (fun (row : Dme_experiment.row) -> row.Dme_experiment.attacks) r.dme

let universe_json (u, s) =
  Json.Obj
    [
      ("universe", Json.String (A.universe_name u));
      (* campaigns raise False_positive on any benign alarm, so a report
         that exists at all certifies a clean benign sweep *)
      ("false_positives", Json.Int 0);
      ("summary", A.summary_json s);
    ]

let dme_json =
  Table.rows_json (fun (r : Dme_experiment.row) ->
      let open Dme_experiment in
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

let attacks_per_second r =
  float_of_int (injected_total r) /. Float.max r.wall_seconds 1e-9

let render r =
  let b = Buffer.create 4096 in
  let universes family =
    List.iter
      (fun (u, s) ->
        Printf.bprintf b "\n-- %s, universe %s --\n%s\n" family (A.universe_name u)
          (A.render s))
  in
  universes "workloads" r.workload_universes;
  Printf.bprintf b "\n-- generated population: %d members (%d distinct), seed %d --\n"
    r.config.pop_members r.pop_distinct r.config.seed;
  universes "population" r.pop_universes;
  Printf.bprintf b "\n-- DME baseline (%d attacks/server, %d holdout pairs) --\n%s\n"
    r.config.dme_attacks r.config.dme_holdout (Dme_experiment.render r.dme);
  Printf.bprintf b "campaign throughput: %d injected attacks in %.2fs (%.1f/s)"
    (injected_total r) r.wall_seconds (attacks_per_second r);
  Buffer.contents b

let to_json r =
  Json.Obj
    [
      (* byte-identical across --jobs values *)
      ("stable", stable_json r);
      ( "throughput_unstable",
        Json.Obj
          [
            ("wall_seconds", Json.Float r.wall_seconds);
            ("injected_attacks", Json.Int (injected_total r));
            ("attacks_per_second", Json.Float (attacks_per_second r));
          ] );
    ]
