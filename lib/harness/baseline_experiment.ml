module M = Ipds_machine
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

let config_for ?checker ?tamper ~input_seed () =
  {
    M.Interp.default_config with
    inputs = M.Input_script.random ~seed:input_seed ();
    checker;
    tamper;
    (* control-flow comparison uses trace digests; don't materialize traces *)
    record_trace = false;
  }

let run ?(n = 3) ?(train_runs = 40) ?(holdout_runs = 50) ?(attacks = 100)
    ?(seed = 2006) (w : W.t) =
  let system = W.system w in
  let program = system.Core.System.program in
  (* train on benign sessions *)
  let benign_trace input_seed =
    B.Syscall_trace.collect program ~config:(config_for ~input_seed ())
  in
  let model =
    B.Ngram.train ~n (List.init train_runs (fun i -> benign_trace (7000 + i)))
  in
  (* held-out false positives *)
  let fp =
    List.init holdout_runs (fun i -> benign_trace (90000 + i))
    |> List.filter (B.Ngram.flags model)
    |> List.length
  in
  (* attack campaign: same methodology as Attack_experiment, with both
     detectors watching the same runs *)
  let model_tamper =
    match W.tamper_model w with
    | `Stack_overflow -> M.Tamper.Stack_overflow
    | `Arbitrary_write -> M.Tamper.Arbitrary_write
  in
  let rng = Random.State.make [| seed; Hashtbl.hash w.W.name |] in
  let injected = ref 0 and cf = ref 0 and ipds_det = ref 0 and ngram_det = ref 0 in
  let attempt = ref 0 in
  while !injected < attacks && !attempt < attacks * 4 do
    incr attempt;
    let input_seed = Random.State.bits rng land 0xffffff in
    let benign_checker = Core.System.new_checker system in
    let benign =
      M.Interp.run program (config_for ~checker:benign_checker ~input_seed ())
    in
    if benign.M.Interp.alarms <> [] then
      Attack_experiment.check_sound ~name:w.W.name Benign_alarm;
    if benign.M.Interp.steps > 2 then begin
      let lo = max 1 (benign.M.Interp.steps / 5) in
      let at_step = lo + Random.State.int rng (max 1 (benign.M.Interp.steps - lo)) in
      let value =
        if Random.State.bool rng then Random.State.int rng 8
        else Random.State.int rng 256
      in
      let plan =
        {
          M.Tamper.at_step;
          site = M.Tamper.Mem_write { model = model_tamper; value };
          seed = Random.State.bits rng land 0xffffff;
        }
      in
      (* one attacked run, observed by both detectors *)
      let checker = Core.System.new_checker system in
      let syscalls = ref [] in
      let observer (e : M.Event.t) =
        match e.M.Event.kind with
        | M.Event.Call { callee } when not (Ipds_mir.Program.is_defined program callee)
          ->
            syscalls := callee :: !syscalls
        | M.Event.Call _ | M.Event.Alu | M.Event.Load _ | M.Event.Store _
        | M.Event.Branch _ | M.Event.Jump _ | M.Event.Ret | M.Event.Input_read
        | M.Event.Output_write _ | M.Event.Fault_inject _ ->
            ()
      in
      let attacked =
        M.Interp.run program
          {
            (config_for ~checker ~input_seed ()) with
            M.Interp.tamper = Some plan;
            observer = Some observer;
          }
      in
      match attacked.M.Interp.injection with
      | None -> ()
      | Some _ ->
          incr injected;
          let changed = M.Interp.control_flow_changed benign attacked
          and alarmed = attacked.M.Interp.alarms <> [] in
          Attack_experiment.check_sound ~name:w.W.name
            (Injected { changed; alarmed });
          if changed then incr cf;
          if alarmed then incr ipds_det;
          let terminal =
            match attacked.M.Interp.reason with
            | M.Interp.Exited _ -> "exit"
            | M.Interp.Halted -> "halt"
            | M.Interp.Fault _ -> "fault"
            | M.Interp.Out_of_steps -> "steps"
            | M.Interp.Trapped _ -> "trap"
          in
          let attacked_trace = List.rev (terminal :: !syscalls) in
          if B.Ngram.flags model attacked_trace then incr ngram_det
    end
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
let run_all ?n ?train_runs ?holdout_runs ?attacks ?seed ?jobs ?pool () =
  Pool.with_opt ?jobs ?pool (fun pool ->
      Pool.map' pool (run ?n ?train_runs ?holdout_runs ?attacks ?seed) W.all)

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
