(* Simulated detection latencies are deterministic per workload, so the
   histogram is stable; it is observed in whole cycles to keep the sums
   integer (float accumulation order would not be order-independent). *)
let m_detection_latency =
  Ipds_obs.Registry.histogram "pipeline.detection_latency_cycles"
    ~bounds:[| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 4096 |]

type frame = {
  bsv : int;
  bcv : int;
  bat : int;
  mutable resident : bool;
}

type t = {
  config : Config.t;
  queue : float Queue.t;  (* completion times of in-flight requests *)
  mutable busy_until : float;
  mutable frames : frame list;  (* innermost first *)
  mutable resident_bits : int * int * int;
  mutable verifies : int;
  mutable updates : int;
  mutable stall_cycles : float;
  mutable spills : int;
  mutable fills : int;
  mutable lat_sum : float;
  mutable lat_count : int;
  mutable max_queue : int;
  mutable context_switches : int;
  mutable ctx_stall : float;
}

let create config =
  {
    config;
    queue = Queue.create ();
    busy_until = 0.;
    frames = [];
    resident_bits = (0, 0, 0);
    verifies = 0;
    updates = 0;
    stall_cycles = 0.;
    spills = 0;
    fills = 0;
    lat_sum = 0.;
    lat_count = 0;
    max_queue = 0;
    context_switches = 0;
    ctx_stall = 0.;
  }

let transfer_cycles config bits =
  let chunks = max 1 ((bits + 63) / 64) in
  float_of_int (config.Config.memory_first_chunk
                + (config.Config.memory_inter_chunk * (chunks - 1)))

(* Engine executes [service] cycles of work enqueued at CPU time [cycle];
   returns the completion time. *)
let submit t ~cycle service =
  let start = max t.busy_until cycle in
  let completion = start +. service in
  t.busy_until <- completion;
  completion

let drain t now =
  let continue = ref true in
  while !continue && not (Queue.is_empty t.queue) do
    if Queue.peek t.queue <= now then ignore (Queue.pop t.queue)
    else continue := false
  done

let enqueue_tracked t ~cycle service =
  drain t cycle;
  (* If the queue is full the CPU waits until the oldest request retires. *)
  let stall =
    if Queue.length t.queue >= t.config.Config.ipds_queue_entries then begin
      let free_at = Queue.pop t.queue in
      let s = max 0. (free_at -. cycle) in
      t.stall_cycles <- t.stall_cycles +. s;
      s
    end
    else 0.
  in
  let cycle = cycle +. stall in
  let dispatch = float_of_int t.config.Config.ipds_dispatch_latency in
  let completion = submit t ~cycle:(cycle +. dispatch) service in
  Queue.push completion t.queue;
  if Queue.length t.queue > t.max_queue then t.max_queue <- Queue.length t.queue;
  (stall, completion -. cycle)

let on_branch t ~cycle ~verify ~bat_nodes =
  let tl = float_of_int t.config.Config.ipds_table_latency in
  let verify_service = if verify then tl else 0. in
  let update_service = tl *. float_of_int (1 + bat_nodes) in
  (* The BSV verify and the BAT-walk update proceed in parallel engine
     pipelines; the request occupies the engine for the longer of the
     two. *)
  let service = Float.max verify_service update_service in
  if verify then t.verifies <- t.verifies + 1;
  t.updates <- t.updates + 1;
  let stall, latency = enqueue_tracked t ~cycle service in
  if verify then begin
    t.lat_sum <- t.lat_sum +. latency;
    t.lat_count <- t.lat_count + 1;
    Ipds_obs.Registry.observe m_detection_latency (int_of_float latency)
  end;
  stall

let caps t = (t.config.Config.bsv_stack_bits, t.config.Config.bcv_stack_bits,
              t.config.Config.bat_stack_bits)

let frame_bits f = (f.bsv, f.bcv, f.bat)

let add (a, b, c) (x, y, z) = (a + x, b + y, c + z)
let sub (a, b, c) (x, y, z) = (a - x, b - y, c - z)
let exceeds (a, b, c) (x, y, z) = a > x || b > y || c > z

(* Spill the outermost resident frames until the stacks fit. *)
let rec spill_to_fit t ~cycle =
  if exceeds t.resident_bits (caps t) then begin
    let rec outermost_resident = function
      | [] -> None
      | [ f ] -> if f.resident then Some f else None
      | f :: rest -> (
          match outermost_resident rest with
          | Some f' -> Some f'
          | None -> if f.resident then Some f else None)
    in
    match outermost_resident t.frames with
    | None -> ()
    | Some f ->
        f.resident <- false;
        t.resident_bits <- sub t.resident_bits (frame_bits f);
        t.spills <- t.spills + 1;
        let bits = f.bsv + f.bcv + f.bat in
        ignore (submit t ~cycle (transfer_cycles t.config bits));
        spill_to_fit t ~cycle
  end

let on_call t ~cycle ~sizes =
  let f =
    {
      bsv = sizes.Ipds_core.Image.bsv_bits;
      bcv = sizes.Ipds_core.Image.bcv_bits;
      bat = sizes.Ipds_core.Image.bat_bits;
      resident = true;
    }
  in
  t.frames <- f :: t.frames;
  t.resident_bits <- add t.resident_bits (frame_bits f);
  spill_to_fit t ~cycle

let on_return t ~cycle =
  match t.frames with
  | [] -> ()
  | f :: rest ->
      if f.resident then t.resident_bits <- sub t.resident_bits (frame_bits f);
      t.frames <- rest;
      (* Returning to a spilled caller: fill its tables back in. *)
      (match rest with
      | caller :: _ when not caller.resident ->
          caller.resident <- true;
          t.resident_bits <- add t.resident_bits (frame_bits caller);
          t.fills <- t.fills + 1;
          let bits = caller.bsv + caller.bcv + caller.bat in
          ignore (submit t ~cycle (transfer_cycles t.config bits))
      | _ :: _ | [] -> ())

let on_context_switch t ~cycle =
  t.context_switches <- t.context_switches + 1;
  (* synchronous: save then restore the hot top-of-stack window *)
  let visible = 2. *. transfer_cycles t.config t.config.Config.ctx_swap_bits in
  (* background: the rest of the resident tables stream through the
     engine, delaying queued requests but not the CPU *)
  let a, b, c = t.resident_bits in
  let rest = max 0 (a + b + c - t.config.Config.ctx_swap_bits) in
  if rest > 0 then
    ignore (submit t ~cycle:(cycle +. visible) (2. *. transfer_cycles t.config rest));
  t.ctx_stall <- t.ctx_stall +. visible;
  visible

type stats = {
  verifies : int;
  updates : int;
  stall_cycles : float;
  spills : int;
  fills : int;
  detection_latency_sum : float;
  detection_latency_count : int;
  max_queue : int;
  context_switches : int;
  ctx_stall_cycles : float;
}

let stats (t : t) =
  {
    verifies = t.verifies;
    updates = t.updates;
    stall_cycles = t.stall_cycles;
    spills = t.spills;
    fills = t.fills;
    detection_latency_sum = t.lat_sum;
    detection_latency_count = t.lat_count;
    max_queue = t.max_queue;
    context_switches = t.context_switches;
    ctx_stall_cycles = t.ctx_stall;
  }

let avg_detection_latency s =
  if s.detection_latency_count = 0 then 0.
  else s.detection_latency_sum /. float_of_int s.detection_latency_count
