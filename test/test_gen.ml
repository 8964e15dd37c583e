(* The generated-population contract (PR: attack universes):

   every member of the seeded random server population compiles through
   the full pass pipeline (front end, promotion, analysis), terminates
   benignly with zero IPDS alarms, and is reproducible — the same seed
   yields byte-identical sources for any pool fan-out. *)

module Mir = Ipds_mir
module Core = Ipds_core
module M = Ipds_machine
module G = Ipds_gen.Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let benign_config ?checker ~input_seed () =
  {
    M.Interp.default_config with
    inputs = M.Input_script.random ~seed:input_seed ();
    checker;
  }

(* Full pipeline for one population member: parse + lower, validate,
   promote registers, analyze, then run under the IPDS checker. *)
let full_pipeline_benign ~seed ~index ~input_seed =
  let src = G.source ~seed ~index () in
  let p = Ipds_minic.Minic.compile src in
  if Mir.Validate.check p <> [] then
    Alcotest.failf "member (%d,%d) fails MIR validation" seed index;
  let p = Ipds_opt.Promote.program p in
  if Mir.Validate.check p <> [] then
    Alcotest.failf "member (%d,%d) fails validation after promotion" seed index;
  let system = Core.System.build p in
  let checker = Core.System.new_checker system in
  let o = M.Interp.run p (benign_config ~checker ~input_seed ()) in
  (match o.M.Interp.reason with
  | M.Interp.Exited _ -> ()
  | M.Interp.Halted -> Alcotest.failf "member (%d,%d) halted" seed index
  | M.Interp.Fault f -> Alcotest.failf "member (%d,%d) faulted: %s" seed index f
  | M.Interp.Out_of_steps ->
      Alcotest.failf "member (%d,%d) ran out of steps" seed index
  | M.Interp.Trapped _ -> Alcotest.failf "member (%d,%d) trapped" seed index);
  o.M.Interp.alarms = []

let prop_members_compile_and_run_clean =
  QCheck2.Test.make ~name:"population members survive the full pipeline benignly"
    ~count:25
    QCheck2.Gen.(tup3 (int_bound 10_000) (int_bound 10_000) (int_bound 1_000))
    (fun (seed, index, input_seed) ->
      full_pipeline_benign ~seed ~index ~input_seed)

let prop_generation_pure =
  QCheck2.Test.make ~name:"same (seed, index) twice is byte-identical" ~count:50
    QCheck2.Gen.(tup2 (int_bound 100_000) (int_bound 10_000))
    (fun (seed, index) ->
      String.equal (G.source ~seed ~index ()) (G.source ~seed ~index ()))

let test_population_jobs_identical () =
  let p1 = G.population ~seed:11 ~count:100 () in
  let p4 =
    Ipds_parallel.Pool.with_opt ~jobs:4 (fun pool ->
        G.population ?pool ~seed:11 ~count:100 ())
  in
  check_int "population size (jobs 1)" 100 (List.length p1);
  check "jobs 1 vs jobs 4 byte-identical" true (p1 = p4);
  (* fan-out matches direct generation at every index *)
  List.iteri
    (fun i src ->
      check ("index " ^ string_of_int i ^ " matches direct source") true
        (String.equal src (G.source ~seed:11 ~index:i ())))
    p1

let test_thousand_distinct_compiling () =
  let count = 1000 in
  let sources = G.population ~seed:2006 ~count () in
  check_int "population size" count (List.length sources);
  let distinct = List.sort_uniq String.compare sources in
  check_int "all members distinct" count (List.length distinct);
  (* every member compiles and terminates benignly (no checker: the
     QCheck property above covers alarm-freedom on sampled members,
     and the stride below re-checks it inside this fixed population) *)
  List.iteri
    (fun i src ->
      let p = Ipds_minic.Minic.compile src in
      if Mir.Validate.check p <> [] then
        Alcotest.failf "member %d fails validation" i;
      let o = M.Interp.run p (benign_config ~input_seed:(3000 + i) ()) in
      match o.M.Interp.reason with
      | M.Interp.Exited _ -> ()
      | _ -> Alcotest.failf "member %d did not exit cleanly" i)
    sources;
  (* a fixed stride of members goes through analysis + checker *)
  let rec stride i =
    if i < count then begin
      check
        ("member " ^ string_of_int i ^ " benign under checker")
        true
        (full_pipeline_benign ~seed:2006 ~index:i ~input_seed:i);
      stride (i + 25)
    end
  in
  stride 0

let () =
  Alcotest.run "gen"
    [
      ( "population",
        [
          QCheck_alcotest.to_alcotest prop_members_compile_and_run_clean;
          QCheck_alcotest.to_alcotest prop_generation_pure;
          Alcotest.test_case "byte-identical across jobs" `Quick
            test_population_jobs_identical;
          Alcotest.test_case "1000 distinct compiling members" `Quick
            test_thousand_distinct_compiling;
        ] );
    ]
