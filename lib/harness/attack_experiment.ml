module M = Ipds_machine
module Core = Ipds_core
module W = Ipds_workloads.Workloads
module Pool = Ipds_parallel.Pool

type row = {
  workload : string;
  attacks : int;
  cf_changed : int;
  detected : int;
}

type summary = {
  rows : row list;
  avg_cf_changed : float;
  avg_detected : float;
  detected_given_cf : float;
}

exception False_positive of string

(* Incremented in lock-step with the campaign's row counters (inside the
   [!injected < attacks] cutoff), so these reconcile exactly with the
   attacks/cf_changed/detected totals of every report built from
   campaigns.  The chunked fold keeps the evaluated attempt set — and so
   these counters — independent of the job count. *)
let m_attempts = Ipds_obs.Registry.counter "attack.attempts"
let m_injected = Ipds_obs.Registry.counter "attack.injected"
let m_cf_changed = Ipds_obs.Registry.counter "attack.cf_changed"
let m_detected = Ipds_obs.Registry.counter "attack.detected"

(* Splittable seeding: every attempt owns an RNG derived from
   (campaign seed, workload name, attempt index), so attempts are
   independent tasks and the campaign is bit-for-bit deterministic
   regardless of domain count or scheduling. *)
let attempt_rng ~seed ~name ~attempt =
  Random.State.make [| seed; Hashtbl.hash name; attempt; 0x6a09e667 |]

type attempt_outcome =
  | Benign_alarm
  | Too_short  (* benign run too short to place an attack window *)
  | No_injection  (* the tamper picked a victim whose value didn't change *)
  | Injected of {
      changed : bool;
      alarmed : bool;
    }

(* Applied to every evaluated attempt, even past a campaign's cutoff — a
   false positive must never be masked by a chunk boundary. *)
let check_sound ~name = function
  | Benign_alarm ->
      raise (False_positive (Printf.sprintf "%s: alarm on benign run" name))
  | Injected { changed = false; alarmed = true } ->
      (* An alarm without a control-flow divergence would be a false
         positive in disguise. *)
      raise
        (False_positive
           (Printf.sprintf "%s: alarm without control-flow change" name))
  | Too_short | No_injection | Injected _ -> ()

(* The attack universes, each a concrete [Tamper.site] builder.  [`Mem]
   resolves per-workload (its vulnerability class); the branch-fault
   universes are workload-independent. *)
type universe =
  [ `Mem | `Cond_flip | `Insn_skip ]

type model = [ `Stack_overflow | `Arbitrary_write | `Cond_flip | `Insn_skip ]

(* The one spelling of every model: CLI flags, event fields and sweep
   labels all read it. *)
let models : (string * model) list =
  [
    ("overflow", `Stack_overflow);
    ("arbitrary", `Arbitrary_write);
    ("cond-flip", `Cond_flip);
    ("insn-skip", `Insn_skip);
  ]

let model_name m = fst (List.find (fun (_, m') -> m' = m) models)

let universe_name = function
  | `Mem -> "mem"
  | (`Cond_flip | `Insn_skip) as m -> model_name m

let universe_of_name name =
  List.find_opt
    (fun u -> String.equal (universe_name u) name)
    [ `Mem; `Cond_flip; `Insn_skip ]

let model_of_universe ?workload = function
  | `Mem -> (
      match workload with
      | Some w -> (W.tamper_model w :> model)
      | None -> `Arbitrary_write)
  | (`Cond_flip | `Insn_skip) as u -> u

let run_config ~input_seed =
  {
    M.Interp.default_config with
    inputs = M.Input_script.random ~seed:input_seed ();
    (* control_flow_changed compares trace digests, so no run needs to
       materialize its O(steps) branch trace *)
    record_trace = false;
  }

type attempt = {
  input_seed : int;
  benign : M.Interp.outcome;
  attack : (M.Tamper.plan * M.Interp.outcome) option;
}

let attempt ?sink ~system ~model program rng =
  let input_seed = Random.State.bits rng land 0xffffff in
  let run ?sink tamper =
    M.Interp.run program
      {
        (run_config ~input_seed) with
        checker = Some (Core.System.new_checker system);
        tamper;
        sink;
      }
  in
  let benign = run None in
  let attack =
    if benign.M.Interp.alarms <> [] || benign.M.Interp.steps <= 2 then None
    else begin
      (* The vulnerability fires on attacker input, i.e. once the session
         is up: strike in the [20%, 100%) window of the benign run. *)
      let lo = max 1 (benign.M.Interp.steps / 5) in
      let at_step =
        lo + Random.State.int rng (max 1 (benign.M.Interp.steps - lo))
      in
      (* Attackers pick meaningful values: small protocol constants about
         half the time, arbitrary bytes otherwise.  Drawn for every
         universe (branch faults ignore them) so the attempt schedule of
         the memory universe is byte-identical to the historical one. *)
      let value =
        if Random.State.bool rng then Random.State.int rng 8
        else Random.State.int rng 256
      in
      let seed = Random.State.bits rng land 0xffffff in
      let site =
        match model with
        | `Stack_overflow ->
            M.Tamper.Mem_write { model = M.Tamper.Stack_overflow; value }
        | `Arbitrary_write ->
            M.Tamper.Mem_write { model = M.Tamper.Arbitrary_write; value }
        | `Cond_flip -> M.Tamper.Cond_flip
        | `Insn_skip -> M.Tamper.Insn_skip
      in
      let plan = { M.Tamper.at_step; site; seed } in
      Some (plan, run ?sink (Some plan))
    end
  in
  { input_seed; benign; attack }

let classify a =
  match a.attack with
  | _ when a.benign.M.Interp.alarms <> [] -> Benign_alarm
  | None -> Too_short
  | Some (_, attacked) -> (
      match attacked.M.Interp.injection with
      | None -> No_injection
      | Some _ ->
          Injected
            {
              changed = M.Interp.control_flow_changed a.benign attacked;
              alarmed = attacked.M.Interp.alarms <> [];
            })

let run_attempt ~system ~program ~model ~seed ~name i =
  classify (attempt ~system ~model program (attempt_rng ~seed ~name ~attempt:i))

let campaign ?system ?pool ?(attacks = 100) ?(seed = 2006) ~model ~name
    program =
  let system =
    match system with
    | Some s -> s
    | None -> Core.System.cached_build program
  in
  (* Some attempts pick a victim whose old value equals the attack value
     (no-op); keep evaluating fresh attempts until [attacks] real
     injections have happened, within a bounded number of attempts.
     Attempts are evaluated in fixed-size chunks (fanned out across the
     pool) and folded in attempt order, so the chunk schedule — and
     therefore the result — does not depend on the job count. *)
  let max_attempts = attacks * 4 in
  let chunk = max 1 attacks in
  let injected = ref 0 in
  let cf_changed = ref 0 in
  let detected = ref 0 in
  let next = ref 0 in
  while !injected < attacks && !next < max_attempts do
    let hi = min max_attempts (!next + chunk) in
    let indices = List.init (hi - !next) (fun i -> !next + i) in
    let outcomes =
      Pool.map' pool (run_attempt ~system ~program ~model ~seed ~name) indices
    in
    List.iter
      (fun outcome ->
        check_sound ~name outcome;
        if !injected < attacks then begin
          Ipds_obs.Registry.incr m_attempts;
          match outcome with
          | Injected { changed; alarmed } ->
              incr injected;
              Ipds_obs.Registry.incr m_injected;
              if changed then begin
                incr cf_changed;
                Ipds_obs.Registry.incr m_cf_changed
              end;
              if alarmed then begin
                incr detected;
                Ipds_obs.Registry.incr m_detected
              end
          | Benign_alarm | Too_short | No_injection -> ()
        end)
      outcomes;
    next := hi
  done;
  if Ipds_obs.Events.enabled () then
    Ipds_obs.Events.emit ~kind:"attack.campaign"
      [
        ("workload", Ipds_obs.Json.String name);
        ("model", Ipds_obs.Json.String (model_name model));
        ("attacks", Ipds_obs.Json.Int !injected);
        ("cf_changed", Ipds_obs.Json.Int !cf_changed);
        ("detected", Ipds_obs.Json.Int !detected);
      ];
  { workload = name; attacks = !injected; cf_changed = !cf_changed;
    detected = !detected }

let run ?pool ?(universe = `Mem) ?attacks ?seed (w : W.t) =
  (* artifact-aware: on a warm cache this skips compile + analysis *)
  let system = W.system w in
  campaign ~system ?pool ?attacks ?seed
    ~model:(model_of_universe ~workload:w universe)
    ~name:w.W.name system.Core.System.program

let summarize rows =
  let frac num den = if den = 0 then 0. else float_of_int num /. float_of_int den in
  let mean f =
    match rows with
    | [] -> 0.
    | _ :: _ ->
        List.fold_left (fun acc r -> acc +. f r) 0. rows
        /. float_of_int (List.length rows)
  in
  {
    rows;
    avg_cf_changed = mean (fun r -> frac r.cf_changed r.attacks);
    avg_detected = mean (fun r -> frac r.detected r.attacks);
    detected_given_cf = mean (fun r -> frac r.detected (max 1 r.cf_changed));
  }

let summary_json s =
  let module J = Ipds_obs.Json in
  J.Obj
    [
      ( "rows",
        Table.rows_json
          (fun r ->
            [
              ("workload", J.String r.workload);
              ("attacks", J.Int r.attacks);
              ("cf_changed", J.Int r.cf_changed);
              ("detected", J.Int r.detected);
            ])
          s.rows );
      ("avg_cf_changed", J.Float s.avg_cf_changed);
      ("avg_detected", J.Float s.avg_detected);
      ("detected_given_cf", J.Float s.detected_given_cf);
    ]

let render s =
  let rows =
    List.map
      (fun r ->
        [
          r.workload;
          string_of_int r.attacks;
          Table.pct (float_of_int r.cf_changed /. float_of_int (max 1 r.attacks));
          Table.pct (float_of_int r.detected /. float_of_int (max 1 r.attacks));
          Table.pct (float_of_int r.detected /. float_of_int (max 1 r.cf_changed));
        ])
      s.rows
  in
  (* an empty summary has no measured average to show *)
  let mean x = if s.rows = [] then "n/a" else Table.pct x in
  let avg =
    [
      "AVERAGE";
      "";
      mean s.avg_cf_changed;
      mean s.avg_detected;
      mean s.detected_given_cf;
    ]
  in
  Table.render
    ~header:
      [ "benchmark"; "attacks"; "cf-changed"; "detected"; "detected|cf-changed" ]
    (rows @ [ avg ])
