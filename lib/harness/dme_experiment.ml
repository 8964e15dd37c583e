module A = Attack_experiment
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

let run ?(attacks = 100) ?(holdout = 30) ?(seed = 2006) (w : W.t) =
  let system = W.system w in
  let program = system.Core.System.program in
  let variant = B.Dme.decorrelate program in
  (* holdout: benign variant pairs must agree (DME false positives),
     and their step totals price the replica overhead *)
  let diffs = ref 0 and overhead_sum = ref 0.0 in
  for i = 0 to holdout - 1 do
    let run p = M.Interp.run p (A.run_config ~input_seed:(60_000 + i)) in
    let a = run program and b = run variant in
    if B.Dme.diverged (B.Dme.canonical a) (B.Dme.canonical b) then incr diffs;
    overhead_sum :=
      !overhead_sum
      +. (float_of_int (a.M.Interp.steps + b.M.Interp.steps)
         /. float_of_int (max 1 a.M.Interp.steps))
  done;
  (* the Fig. 7 attack campaign, with each injected tamper replayed
     physically in the decorrelated variant *)
  let model = A.model_of_universe ~workload:w `Mem in
  let rng = Random.State.make [| seed; Hashtbl.hash w.W.name; 0xd13e |] in
  let injected = ref 0
  and cf = ref 0
  and dme_det = ref 0
  and ipds_det = ref 0 in
  let attempts = ref 0 in
  while !injected < attacks && !attempts < attacks * 4 do
    incr attempts;
    let a = A.attempt ~system ~model program rng in
    let outcome = A.classify a in
    A.check_sound ~name:w.W.name outcome;
    match (outcome, a.A.attack) with
    | ( A.Injected { changed; alarmed },
        Some
          ( ({ M.Tamper.site = M.Tamper.Mem_write { value; _ }; _ } as plan),
            ({ M.Interp.injection = Some (M.Tamper.Tampered_cell cell); _ } as
             attacked) ) ) ->
        incr injected;
        if changed then incr cf;
        if alarmed then incr ipds_det;
        (* the same physical write, replayed in the other layout *)
        let site = M.Tamper.Mem_write_at { addr = cell.addr; value } in
        let replica =
          M.Interp.run variant
            {
              (A.run_config ~input_seed:a.A.input_seed) with
              tamper = Some { plan with site };
            }
        in
        if B.Dme.diverged (B.Dme.canonical attacked) (B.Dme.canonical replica)
        then incr dme_det
    | _ -> ()
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

let run_all ?attacks ?holdout ?seed ?pool () =
  Pool.map' pool (run ?attacks ?holdout ?seed) W.all

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
