module M = Ipds_machine
module Core = Ipds_core
module B = Ipds_baseline
module W = Ipds_workloads.Workloads
module Pool = Ipds_parallel.Pool

type row = {
  workload : string;
  attacks : int;
  cf_changed : int;
  dme_detected : int;
  ipds_detected : int;
  benign_diffs : int;
  holdout : int;
  overhead : float;
}

let config_for ?checker ?tamper ~input_seed () =
  {
    M.Interp.default_config with
    inputs = M.Input_script.random ~seed:input_seed ();
    checker;
    tamper;
    record_trace = false;
  }

let run ?(attacks = 100) ?(holdout = 30) ?(seed = 2006) (w : W.t) =
  let system = W.system w in
  let program = system.Core.System.program in
  let variant = B.Dme.decorrelate program in
  (* holdout: benign variant pairs must agree (DME false positives),
     and their step totals price the replica overhead *)
  let diffs = ref 0 and overhead_sum = ref 0.0 in
  for i = 0 to holdout - 1 do
    let a = B.Dme.run ~config:(config_for ~input_seed:(60_000 + i) ()) program in
    let b = B.Dme.run ~config:(config_for ~input_seed:(60_000 + i) ()) variant in
    if B.Dme.diverged (B.Dme.canonical a) (B.Dme.canonical b) then incr diffs;
    overhead_sum :=
      !overhead_sum
      +. (float_of_int (a.M.Interp.steps + b.M.Interp.steps)
         /. float_of_int (max 1 a.M.Interp.steps))
  done;
  (* attack campaign: same methodology as Attack_experiment, with the
     tamper replayed physically in the decorrelated variant *)
  let model =
    match W.tamper_model w with
    | `Stack_overflow -> M.Tamper.Stack_overflow
    | `Arbitrary_write -> M.Tamper.Arbitrary_write
  in
  let rng = Random.State.make [| seed; Hashtbl.hash w.W.name; 0xd13e |] in
  let injected = ref 0
  and cf = ref 0
  and dme_det = ref 0
  and ipds_det = ref 0 in
  let attempt = ref 0 in
  while !injected < attacks && !attempt < attacks * 4 do
    incr attempt;
    let input_seed = Random.State.bits rng land 0xffffff in
    let benign = M.Interp.run program (config_for ~input_seed ()) in
    if benign.M.Interp.steps > 2 then begin
      let lo = max 1 (benign.M.Interp.steps / 5) in
      let at_step = lo + Random.State.int rng (max 1 (benign.M.Interp.steps - lo)) in
      let value =
        if Random.State.bool rng then Random.State.int rng 8
        else Random.State.int rng 256
      in
      let tamper_seed = Random.State.bits rng land 0xffffff in
      let checker = Core.System.new_checker system in
      let attacked =
        M.Interp.run program
          (config_for ~checker ~input_seed
             ~tamper:
               {
                 M.Tamper.at_step;
                 site = M.Tamper.Mem_write { model; value };
                 seed = tamper_seed;
               }
             ())
      in
      match attacked.M.Interp.injection with
      | None | Some (M.Tamper.Flipped_branch _ | M.Tamper.Skipped_branch _) -> ()
      | Some (M.Tamper.Tampered_cell cell) ->
          incr injected;
          let changed = M.Interp.control_flow_changed benign attacked
          and alarmed = attacked.M.Interp.alarms <> [] in
          Attack_experiment.check_sound ~name:w.W.name
            (Injected { changed; alarmed });
          if changed then incr cf;
          if alarmed then incr ipds_det;
          (* the same physical write, replayed in the other layout *)
          let replica =
            M.Interp.run variant
              (config_for ~input_seed
                 ~tamper:
                   {
                     M.Tamper.at_step;
                     site = M.Tamper.Mem_write_at { addr = cell.addr; value };
                     seed = tamper_seed;
                   }
                 ())
          in
          if B.Dme.diverged (B.Dme.canonical attacked) (B.Dme.canonical replica)
          then incr dme_det
    end
  done;
  {
    workload = w.W.name;
    attacks = !injected;
    cf_changed = !cf;
    dme_detected = !dme_det;
    ipds_detected = !ipds_det;
    benign_diffs = !diffs;
    holdout;
    overhead = !overhead_sum /. float_of_int (max 1 holdout);
  }

let run_all ?attacks ?holdout ?seed ?jobs ?pool () =
  Pool.with_opt ?jobs ?pool (fun pool ->
      Pool.map' pool (run ?attacks ?holdout ?seed) W.all)

let render rows =
  let frac num den = float_of_int num /. float_of_int (max 1 den) in
  let mean f =
    match Stats.mean (List.map f rows) with None -> "n/a" | Some m -> Table.pct m
  in
  let body =
    List.map
      (fun r ->
        [
          r.workload;
          Table.pct (frac r.benign_diffs r.holdout);
          Table.pct (frac r.dme_detected r.attacks);
          Table.f2 r.overhead;
          Table.pct (frac r.ipds_detected r.attacks);
        ])
      rows
  in
  let avg =
    [
      "AVERAGE";
      mean (fun r -> frac r.benign_diffs r.holdout);
      mean (fun r -> frac r.dme_detected r.attacks);
      (match Stats.mean (List.map (fun r -> r.overhead) rows) with
      | None -> "n/a"
      | Some m -> Table.f2 m);
      mean (fun r -> frac r.ipds_detected r.attacks);
    ]
  in
  Table.render
    ~header:
      [ "benchmark"; "DME FP rate"; "DME detected"; "DME overhead"; "IPDS detected" ]
    (body @ [ avg ])
