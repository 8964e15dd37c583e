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

(* ---------- per-pass breakdown ---------- *)

type pass_row = {
  pass : string;
  scope : string;
  units : int;
  seconds : float;
}

(* Deltas of the process-wide pass metrics across [f ()], so builds run
   by other bench targets in the same process don't pollute the
   breakdown.  Unit counts are stable (fixed by the build set); wall
   seconds are scheduling-dependent and reported as unstable. *)
let with_passes f =
  let snapshot () = Ipds_pass.Pass.report () in
  let before = snapshot () in
  let result = f () in
  let units_before name =
    match
      List.find_opt (fun r -> String.equal r.Ipds_pass.Pass.r_name name) before
    with
    | Some r -> (r.Ipds_pass.Pass.r_units, r.Ipds_pass.Pass.r_seconds)
    | None -> (0, 0.)
  in
  let passes =
    List.map
      (fun (r : Ipds_pass.Pass.report_row) ->
        let u0, s0 = units_before r.Ipds_pass.Pass.r_name in
        {
          pass = r.Ipds_pass.Pass.r_name;
          scope =
            (match r.Ipds_pass.Pass.r_scope with
            | Ipds_pass.Pass.Program -> "program"
            | Ipds_pass.Pass.Function -> "function");
          units = r.Ipds_pass.Pass.r_units - u0;
          seconds = r.Ipds_pass.Pass.r_seconds -. s0;
        })
      (snapshot ())
  in
  (result, passes)

let render_passes passes =
  Table.render
    ~header:[ "pass"; "scope"; "units"; "wall seconds (unstable)" ]
    (List.map
       (fun p ->
         [ p.pass; p.scope; string_of_int p.units; Printf.sprintf "%.4f" p.seconds ])
       passes)

let render rows =
  Table.render
    ~header:[ "benchmark"; "compile seconds"; "hash attempts" ]
    (List.map
       (fun r ->
         [ r.workload; Printf.sprintf "%.4f" r.seconds; string_of_int r.hash_attempts ])
       rows)
