module Mir = Ipds_mir
module Core = Ipds_core
module W = Ipds_workloads.Workloads

type row = {
  workload : string;
  seconds : float;
  hash_attempts : int;
}

let run (w : W.t) =
  let t0 = Unix.gettimeofday () in
  let program = Ipds_minic.Minic.compile w.W.source in
  let system = Core.System.build program in
  let t1 = Unix.gettimeofday () in
  let layout = system.Core.System.layout in
  let attempts =
    List.fold_left
      (fun acc (f : Mir.Func.t) ->
        acc + Core.Hash.attempts_for (Mir.Layout.branch_pcs layout f))
      0 program.Mir.Program.funcs
  in
  { workload = w.W.name; seconds = t1 -. t0; hash_attempts = attempts }

let run_all () = List.map run W.all

(* Deltas of the process-wide pass metrics across [f ()], so builds run
   by other bench targets in the same process don't pollute the
   breakdown.  Unit counts are stable (fixed by the build set); wall
   seconds are scheduling-dependent and reported as unstable. *)
let with_passes f =
  let module Pass = Ipds_pass.Pass in
  let before = List.map (fun r -> (r.Pass.r_name, r)) (Pass.report ()) in
  let result = f () in
  ( result,
    List.map
      (fun (r : Pass.report_row) ->
        match List.assoc_opt r.Pass.r_name before with
        | None -> r
        | Some b ->
            {
              r with
              Pass.r_units = r.Pass.r_units - b.Pass.r_units;
              r_runs = r.Pass.r_runs - b.Pass.r_runs;
              r_seconds = r.Pass.r_seconds -. b.Pass.r_seconds;
            })
      (Pass.report ()) )

let render rows =
  Table.render
    ~header:[ "benchmark"; "compile seconds"; "hash attempts" ]
    (List.map
       (fun r ->
         [ r.workload; Printf.sprintf "%.4f" r.seconds; string_of_int r.hash_attempts ])
       rows)

let to_json rows passes =
  let module J = Ipds_obs.Json in
  let module Pass = Ipds_pass.Pass in
  J.Obj
    [
      ( "per_workload",
        Table.rows_json
          (fun r ->
            [
              ("workload", J.String r.workload);
              ("seconds", J.Float r.seconds);
              ("hash_attempts", J.Int r.hash_attempts);
            ])
          rows );
      (* pass names and unit counts are stable across --jobs; wall
         seconds are scheduling-dependent, hence the explicit suffix. *)
      ( "passes",
        Table.rows_json
          (fun (p : Pass.report_row) ->
            [
              ("name", J.String p.Pass.r_name);
              ("scope", J.String (Pass.scope_name p.Pass.r_scope));
              ("units", J.Int p.Pass.r_units);
              ("wall_seconds_unstable", J.Float p.Pass.r_seconds);
            ])
          passes );
    ]
