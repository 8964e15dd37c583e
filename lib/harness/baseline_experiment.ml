module A = Attack_experiment
module Core = Ipds_core
module B = Ipds_baseline
module W = Ipds_workloads.Workloads
module Pool = Ipds_parallel.Pool

type row = {
  workload : string;
  ngram_fp : float;
  ngram_detected : int;
  ipds_detected : int;
  cf_changed : int;
  attacks : int;
}

let run ?(n = 3) ?(train_runs = 40) ?(holdout_runs = 50) ?(attacks = 100)
    ?(seed = 2006) (w : W.t) =
  let system = W.system w in
  let program = system.Core.System.program in
  (* train on benign sessions *)
  let benign_trace input_seed =
    B.Syscall_trace.collect program ~config:(A.run_config ~input_seed)
  in
  let ngram =
    B.Ngram.train ~n (List.init train_runs (fun i -> benign_trace (7000 + i)))
  in
  (* held-out false positives *)
  let fp =
    List.init holdout_runs (fun i -> benign_trace (90000 + i))
    |> List.filter (B.Ngram.flags ngram)
    |> List.length
  in
  (* the Fig. 7 attack campaign, with both detectors watching each
     attacked run *)
  let model = A.model_of_universe ~workload:w `Mem in
  let rng = Random.State.make [| seed; Hashtbl.hash w.W.name |] in
  let injected = ref 0 and cf = ref 0 and ipds_det = ref 0 and ngram_det = ref 0 in
  let attempts = ref 0 in
  while !injected < attacks && !attempts < attacks * 4 do
    incr attempts;
    let sink, trace = B.Syscall_trace.recorder program in
    let a = A.attempt ~sink ~system ~model program rng in
    let outcome = A.classify a in
    A.check_sound ~name:w.W.name outcome;
    match (outcome, a.A.attack) with
    | A.Injected { changed; alarmed }, Some (_, attacked) ->
        incr injected;
        if changed then incr cf;
        if alarmed then incr ipds_det;
        if B.Ngram.flags ngram (trace attacked) then incr ngram_det
    | _ -> ()
  done;
  {
    workload = w.W.name;
    ngram_fp = float_of_int fp /. float_of_int (max 1 holdout_runs);
    ngram_detected = !ngram_det;
    ipds_detected = !ipds_det;
    cf_changed = !cf;
    attacks = !injected;
  }

(* Each workload's campaign draws from its own (seed, name)-salted RNG,
   so fanning whole workloads out across domains keeps run_all
   deterministic for any job count. *)
let run_all ?n ?train_runs ?holdout_runs ?attacks ?seed ?pool () =
  Pool.map' pool (run ?n ?train_runs ?holdout_runs ?attacks ?seed) W.all

let render rows =
  let mean f =
    match Stats.mean (List.map f rows) with
    | None -> "n/a"
    | Some m -> Table.pct m
  in
  let body =
    List.map
      (fun r ->
        [
          r.workload;
          Table.pct r.ngram_fp;
          Table.pct (float_of_int r.ngram_detected /. float_of_int (max 1 r.attacks));
          "0.0%";
          Table.pct (float_of_int r.ipds_detected /. float_of_int (max 1 r.attacks));
        ])
      rows
  in
  let avg =
    [
      "AVERAGE";
      mean (fun r -> r.ngram_fp);
      mean (fun r -> float_of_int r.ngram_detected /. float_of_int (max 1 r.attacks));
      "0.0%";
      mean (fun r -> float_of_int r.ipds_detected /. float_of_int (max 1 r.attacks));
    ]
  in
  Table.render
    ~header:
      [ "benchmark"; "ngram FP rate"; "ngram detected"; "IPDS FP rate"; "IPDS detected" ]
    (body @ [ avg ])

let to_json =
  let module J = Ipds_obs.Json in
  Table.rows_json (fun r ->
      [
        ("workload", J.String r.workload);
        ("ngram_fp", J.Float r.ngram_fp);
        ("ngram_detected", J.Int r.ngram_detected);
        ("ipds_detected", J.Int r.ipds_detected);
        ("cf_changed", J.Int r.cf_changed);
        ("attacks", J.Int r.attacks);
      ])
