module Event = Ipds_machine.Event

(* Flushed once per simulation in [finish]; the per-event observer never
   touches the registry. *)
let m_sims = Ipds_obs.Registry.counter "pipeline.sims"
let m_instructions = Ipds_obs.Registry.counter "pipeline.instructions"
let m_branches = Ipds_obs.Registry.counter "pipeline.branches"
let m_mispredicts = Ipds_obs.Registry.counter "pipeline.mispredicts"
let m_l2_misses = Ipds_obs.Registry.counter "pipeline.l2_misses"
let m_verifies = Ipds_obs.Registry.counter "pipeline.verifies"
let m_updates = Ipds_obs.Registry.counter "pipeline.updates"
let m_spills = Ipds_obs.Registry.counter "pipeline.spills"
let m_fills = Ipds_obs.Registry.counter "pipeline.fills"
let m_alarms = Ipds_obs.Registry.counter "pipeline.alarms"
let m_context_switches = Ipds_obs.Registry.counter "pipeline.context_switches"

type t = {
  config : Config.t;
  ctx_switch_period : float option;
  mutable next_ctx_switch : float;
  system : Ipds_core.System.t option;
  checker : Ipds_core.Checker.t option;
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  predictor : Predictor.t;
  unit_ : Ipds_unit.t option;
  mutable cycles : float;
  mutable instructions : int;
  mutable l2_misses : int;
}

let create ?(config = Config.default) ?ctx_switch_period ~system () =
  {
    config;
    ctx_switch_period;
    next_ctx_switch = (match ctx_switch_period with Some p -> p | None -> infinity);
    system;
    checker = Option.map Ipds_core.System.new_checker system;
    l1i = Cache.create config.Config.l1i;
    l1d = Cache.create config.Config.l1d;
    l2 = Cache.create config.Config.l2;
    predictor = Predictor.create ~history_bits:config.Config.predictor_history_bits;
    unit_ = Option.map (fun _ -> Ipds_unit.create config) system;
    cycles = 0.;
    instructions = 0;
    l2_misses = 0;
  }

(* Miss-cost model: an L1 miss pays the L2 latency; an L2 miss pays the
   memory latency; both discounted by the out-of-order overlap factor. *)
let mem_access t cache addr =
  if not (Cache.access cache addr) then begin
    let cost =
      if Cache.access t.l2 addr then float_of_int t.config.Config.l2.Config.hit_latency
      else begin
        t.l2_misses <- t.l2_misses + 1;
        float_of_int t.config.Config.memory_first_chunk
      end
    in
    t.cycles <- t.cycles +. (cost *. (1. -. t.config.Config.memory_overlap))
  end

let observer t (e : Event.t) =
  (* Fault markers are simulator metadata, not retired instructions: the
     faulted hardware spends no cycles announcing its own corruption. *)
  match e.Event.kind with
  | Event.Fault_inject _ -> ()
  | _ ->
  t.instructions <- t.instructions + 1;
  (match t.ctx_switch_period, t.unit_ with
  | Some period, Some unit_ ->
      if t.cycles >= t.next_ctx_switch then begin
        t.cycles <- t.cycles +. Ipds_unit.on_context_switch unit_ ~cycle:t.cycles;
        t.next_ctx_switch <- t.cycles +. period
      end
  | _, _ -> ());
  t.cycles <- t.cycles +. (1. /. float_of_int t.config.Config.commit_width);
  mem_access t t.l1i e.Event.pc;
  match e.Event.kind with
  | Event.Alu | Event.Input_read | Event.Output_write _ | Event.Jump _
  | Event.Fault_inject _ -> ()
  | Event.Load { addr } | Event.Store { addr } -> mem_access t t.l1d addr
  | Event.Branch { taken; _ } -> (
      let correct = Predictor.observe t.predictor ~pc:e.Event.pc ~taken in
      if not correct then
        t.cycles <- t.cycles +. float_of_int t.config.Config.mispredict_penalty;
      match t.checker, t.unit_ with
      | Some checker, Some unit_ ->
          let v = Ipds_core.Checker.on_branch checker ~pc:e.Event.pc ~taken in
          let stall =
            Ipds_unit.on_branch unit_ ~cycle:t.cycles
              ~verify:(Ipds_core.Checker.verdict_checked v)
              ~bat_nodes:(Ipds_core.Checker.verdict_bat_nodes v)
          in
          t.cycles <- t.cycles +. stall
      | _, _ -> ())
  | Event.Call { callee } -> (
      match t.checker, t.unit_, t.system with
      | Some checker, Some unit_, Some system
        when Ipds_mir.Program.is_defined system.Ipds_core.System.program callee ->
          ignore (Ipds_core.Checker.on_call checker callee);
          let sizes = Ipds_core.Image.sizes (Ipds_core.System.image system callee) in
          Ipds_unit.on_call unit_ ~cycle:t.cycles ~sizes
      | _, _, _ -> ())
  | Event.Ret -> (
      match t.checker, t.unit_ with
      | Some checker, Some unit_ ->
          ignore (Ipds_core.Checker.on_return checker);
          Ipds_unit.on_return unit_ ~cycle:t.cycles
      | _, _ -> ())

type ipds_stats = {
  verifies : int;
  updates : int;
  stall_cycles : float;
  spills : int;
  fills : int;
  avg_detection_latency : float;
  max_queue : int;
  alarms : int;
  context_switches : int;
  ctx_stall_cycles : float;
}

type report = {
  cycles : float;
  instructions : int;
  ipc : float;
  l1i_misses : int;
  l1d_misses : int;
  l2_misses : int;
  branches : int;
  mispredicts : int;
  ipds : ipds_stats option;
}

let finish (t : t) =
  Ipds_obs.Registry.incr m_sims;
  Ipds_obs.Registry.add m_instructions t.instructions;
  Ipds_obs.Registry.add m_branches (Predictor.lookups t.predictor);
  Ipds_obs.Registry.add m_mispredicts (Predictor.mispredicts t.predictor);
  Ipds_obs.Registry.add m_l2_misses t.l2_misses;
  let ipds =
    match t.unit_, t.checker with
    | Some unit_, Some checker ->
        (* a simulation can end mid-stack; push pending checker deltas *)
        Ipds_core.Checker.flush checker;
        let s = Ipds_unit.stats unit_ in
        Ipds_obs.Registry.add m_verifies s.Ipds_unit.verifies;
        Ipds_obs.Registry.add m_updates s.Ipds_unit.updates;
        Ipds_obs.Registry.add m_spills s.Ipds_unit.spills;
        Ipds_obs.Registry.add m_fills s.Ipds_unit.fills;
        Ipds_obs.Registry.add m_context_switches s.Ipds_unit.context_switches;
        Ipds_obs.Registry.add m_alarms (Ipds_core.Checker.alarm_count checker);
        Some
          {
            verifies = s.Ipds_unit.verifies;
            updates = s.Ipds_unit.updates;
            stall_cycles = s.Ipds_unit.stall_cycles;
            spills = s.Ipds_unit.spills;
            fills = s.Ipds_unit.fills;
            avg_detection_latency = Ipds_unit.avg_detection_latency s;
            max_queue = s.Ipds_unit.max_queue;
            alarms = Ipds_core.Checker.alarm_count checker;
            context_switches = s.Ipds_unit.context_switches;
            ctx_stall_cycles = s.Ipds_unit.ctx_stall_cycles;
          }
    | _, _ -> None
  in
  {
    cycles = t.cycles;
    instructions = t.instructions;
    ipc =
      (if t.cycles > 0. then float_of_int t.instructions /. t.cycles else 0.);
    l1i_misses = Cache.misses t.l1i;
    l1d_misses = Cache.misses t.l1d;
    l2_misses = t.l2_misses;
    branches = Predictor.lookups t.predictor;
    mispredicts = Predictor.mispredicts t.predictor;
    ipds;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>cycles %.0f, instr %d, ipc %.2f@,\
     l1i misses %d, l1d misses %d, l2 misses %d@,\
     branches %d, mispredicts %d@]" r.cycles r.instructions r.ipc r.l1i_misses
    r.l1d_misses r.l2_misses r.branches r.mispredicts;
  match r.ipds with
  | None -> ()
  | Some s ->
      Format.fprintf ppf
        "@,@[<v>ipds: %d verifies, %d updates, %.1f stall cycles@,\
         %d spills, %d fills, avg detection latency %.1f cycles, max queue %d, \
         %d alarms@]"
        s.verifies s.updates s.stall_cycles s.spills s.fills
        s.avg_detection_latency s.max_queue s.alarms
