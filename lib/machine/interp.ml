module Mir = Ipds_mir

type stop_reason =
  | Exited of Value.t
  | Halted
  | Fault of string
  | Out_of_steps
  | Trapped of Ipds_core.Checker.alarm

type outcome = {
  reason : stop_reason;
  steps : int;
  branches : int;
  outputs : int list;
  branch_trace : (int * bool) list;
  trace_digest : int;
  alarms : Ipds_core.Checker.alarm list;
  injection : Tamper.injection option;
}

type config = {
  max_steps : int;
  inputs : Input_script.t;
  checker : Ipds_core.Checker.t option;
  trap_on_alarm : bool;
  sink : (Event.t -> unit) option;
      (* The one event tap.  Events arrive strictly in commit order: an
         event is emitted only after its instruction's effects (including
         the callee frame push for calls) have been applied, so replaying
         the stream through {!Ipds_core.Checker} is equivalent to inline
         checking even when the run faults or traps mid-block. *)
  record_trace : bool;
  tamper : Tamper.plan option;
}

let default_config =
  {
    max_steps = 500_000;
    inputs = Input_script.constant 0;
    checker = None;
    trap_on_alarm = false;
    sink = None;
    record_trace = true;
    tamper = None;
  }

exception Machine_fault of string

(* Totals are accumulated in the interpreter's own mutable state and
   flushed once per run; the hot loop never touches an atomic. *)
let m_runs = Ipds_obs.Registry.counter "interp.runs"
let m_steps = Ipds_obs.Registry.counter "interp.steps"
let m_branches = Ipds_obs.Registry.counter "interp.branches"
let m_faults = Ipds_obs.Registry.counter "interp.faults"
let m_traps = Ipds_obs.Registry.counter "interp.traps"
let m_injections = Ipds_obs.Registry.counter "interp.injections"
let m_max_run_steps = Ipds_obs.Registry.gauge "interp.max_run_steps"

let m_run_steps =
  Ipds_obs.Registry.histogram "interp.run_steps"
    ~bounds:[| 10; 100; 1_000; 10_000; 100_000; 1_000_000 |]

(* A defined function as a run resolves it, once: its base pc, where
   its locals live, and (only when a sink will read them) each block's
   first pc.  An event's pc is then [base + iid * instr_bytes]. *)
type fn = {
  func : Mir.Func.t;
  base : int;
  shape : Memory.shape;
  block_pcs : int array;  (* [[||]] when the run has no sink *)
}

module Names = Hashtbl.Make (String)

type act = {
  fn : fn;
  frame_id : int;
  regs : Value.t array;
  mutable blk : int;
  mutable pos : int;
  ret_dst : Mir.Reg.t option;
}

type state = {
  funcs : fn Names.t;  (* the first definition of each name *)
  memory : Memory.t;
  config : config;
  tracing : bool;  (* a sink is installed: build event payloads *)
  mutable stack : act list;
  mutable depth : int;  (* [List.length stack] *)
  mutable steps : int;
  mutable branches : int;
  mutable outputs_rev : int list;
  mutable trace_rev : (int * bool) list;
  mutable trace_digest : int;
  mutable injection : Tamper.injection option;
  mutable stop : stop_reason option;
}

(* A multiplicative rolling hash over the (pc, taken) sequence.  Kept
   unconditionally — one multiply and xor per committed branch — so
   control-flow comparisons do not need [record_trace] and campaigns can
   skip materializing O(steps) trace lists. *)
let digest_branch digest ~pc ~taken =
  (digest * 1_000_003) lxor ((pc lsl 1) lor Bool.to_int taken)

let max_call_depth = 4096

let first_iid (f : Mir.Func.t) blk_idx =
  let blk = f.blocks.(blk_idx) in
  if Array.length blk.Mir.Block.body > 0 then blk.Mir.Block.body.(0).Mir.Instr.iid
  else blk.Mir.Block.term_iid

let resolve_funcs (program : Mir.Program.t) ~tracing =
  let funcs = Names.create 16 in
  List.iter2
    (fun (f : Mir.Func.t) (_, base, _) ->
      if not (Names.mem funcs f.name) then
        Names.add funcs f.name
          {
            func = f;
            base;
            shape = Memory.shape f;
            block_pcs =
              (if tracing then
                 Array.init (Array.length f.blocks) (fun b ->
                     base + (first_iid f b * Mir.Layout.instr_bytes))
               else [||]);
          })
    program.funcs
    (Mir.Layout.entries (Mir.Layout.make program));
  funcs

let pc (a : act) iid = a.fn.base + (iid * Mir.Layout.instr_bytes)

let to_num st = function
  | Value.Int n -> n
  | Value.Ptr p -> Memory.address st.memory ~frame:p.Value.frame p.Value.var p.Value.index

let operand (a : act) (o : Mir.Operand.t) =
  match o with
  | Mir.Operand.Imm n -> Value.Int n
  | Mir.Operand.Reg r -> a.regs.(Mir.Reg.index r)

let eval_binop st op va vb =
  match op, va, vb with
  | Mir.Binop.Add, Value.Ptr p, Value.Int n | Mir.Binop.Add, Value.Int n, Value.Ptr p
    ->
      Value.Ptr { p with Value.index = p.Value.index + n }
  | Mir.Binop.Sub, Value.Ptr p, Value.Int n ->
      Value.Ptr { p with Value.index = p.Value.index - n }
  | Mir.Binop.Sub, Value.Ptr p, Value.Ptr q
    when p.Value.frame = q.Value.frame && Mir.Var.equal p.Value.var q.Value.var ->
      Value.Int (p.Value.index - q.Value.index)
  | ( ( Mir.Binop.Add | Mir.Binop.Sub | Mir.Binop.Mul | Mir.Binop.Div
      | Mir.Binop.Rem | Mir.Binop.And | Mir.Binop.Or | Mir.Binop.Xor
      | Mir.Binop.Shl | Mir.Binop.Shr ),
      _,
      _ ) ->
      Value.Int (Mir.Binop.eval op (to_num st va) (to_num st vb))

let var_frame (a : act) (v : Mir.Var.t) =
  if v.storage = Mir.Var.Global then 0 else a.frame_id

let index st (a : act) o =
  match operand a o with
  | Value.Int i -> i
  | Value.Ptr _ as p -> to_num st p

let deref st (a : act) r =
  match a.regs.(Mir.Reg.index r) with
  | Value.Ptr p ->
      if Memory.frame_alive st.memory p.Value.frame then p
      else raise (Machine_fault "dangling pointer dereference")
  | Value.Int _ -> raise (Machine_fault "dereference of non-pointer")

let mem_load st ~frame v i =
  let cells = Memory.cells st.memory ~frame v in
  if Array.length cells = 0 then raise (Machine_fault "load from dead memory");
  cells.(Memory.wrap v i)

let mem_store st ~frame v i value =
  let cells = Memory.cells st.memory ~frame v in
  if Array.length cells = 0 then raise (Machine_fault "store to dead memory");
  cells.(Memory.wrap v i) <- value

(* ---------- external functions ---------- *)

let as_ptr = function
  | Value.Ptr p ->
      if p.Value.index < 0 || p.Value.index >= p.Value.var.Mir.Var.size then
        raise (Machine_fault "extern: pointer out of bounds")
      else p
  | Value.Int _ -> raise (Machine_fault "extern: expected pointer argument")

(* indices [p.index, p.index + n) clamped to the variable *)
let ptr_range (p : Value.pointer) n =
  let lo = max 0 p.Value.index in
  let hi = min p.Value.var.Mir.Var.size (p.Value.index + max 0 n) in
  (lo, max 0 (hi - lo))

let load_cells st (p : Value.pointer) n =
  let lo, len = ptr_range p n in
  List.init len (fun k -> mem_load st ~frame:p.Value.frame p.Value.var (lo + k))

let store_cells st (p : Value.pointer) n value =
  let lo, len = ptr_range p n in
  for k = 0 to len - 1 do
    mem_store st ~frame:p.Value.frame p.Value.var (lo + k) (value k)
  done;
  len

let exec_extern st name (args : Value.t list) =
  let num = to_num st in
  match name, args with
  | "memset", [ p; v; n ] ->
      let p = as_ptr p in
      ignore (store_cells st p (num n) (fun _ -> Value.Int (num v)));
      Value.Int 0
  | "memcpy", [ dst; src; n ] ->
      (* every source cell is read before the first write, so an
         overlapping copy moves the old contents *)
      let dst = as_ptr dst and src = as_ptr src in
      let n = num n in
      let values = Array.of_list (load_cells st src n) in
      let _, len = ptr_range dst n in
      ignore (store_cells st dst (min len (Array.length values)) (Array.get values));
      Value.Int 0
  | "strcmp", [ a; b ] ->
      let a = as_ptr a and b = as_ptr b in
      let cell (p : Value.pointer) i =
        if p.Value.index + i < p.Value.var.Mir.Var.size then
          num (mem_load st ~frame:p.Value.frame p.Value.var (p.Value.index + i))
        else 0
      in
      let rec cmp i =
        let x = cell a i and y = cell b i in
        if x <> y then if x < y then -1 else 1
        else if x = 0 then 0
        else if a.Value.index + i >= a.Value.var.Mir.Var.size
                && b.Value.index + i >= b.Value.var.Mir.Var.size then 0
        else cmp (i + 1)
      in
      Value.Int (cmp 0)
  | "strlen", [ p ] ->
      let p = as_ptr p in
      let rec len i =
        if p.Value.index + i >= p.Value.var.Mir.Var.size then i
        else if num (mem_load st ~frame:p.Value.frame p.Value.var (p.Value.index + i)) = 0
        then i
        else len (i + 1)
      in
      Value.Int (len 0)
  | "checksum", [ p; n ] ->
      let p = as_ptr p in
      let sum = List.fold_left (fun acc v -> acc + num v) 0 (load_cells st p (num n)) in
      Value.Int sum
  | "hash_pw", [ p; n ] ->
      let p = as_ptr p in
      let h =
        List.fold_left (fun acc v -> (acc * 31) + num v) 17 (load_cells st p (num n))
      in
      Value.Int (h land 0xffffff)
  | "log_msg", [ _; _ ] -> Value.Int 0
  | "send", [ _; n ] -> Value.Int (num n)
  | ("recv" | "read_line"), [ p; n ] ->
      let p = as_ptr p in
      let channel = if String.equal name "recv" then 1 else 0 in
      let stored =
        store_cells st p (num n) (fun _ ->
            Value.Int (Input_script.next st.config.inputs ~channel))
      in
      Value.Int stored
  | "syscall", _ -> Value.Int 0
  | _, _ ->
      raise (Machine_fault (Printf.sprintf "extern %s: bad arity or unknown" name))

(* ---------- the main loop ---------- *)

let emit st (a : act) iid kind =
  match st.config.sink with
  | None -> ()
  | Some f -> f { Event.fname = a.fn.func.Mir.Func.name; iid; pc = pc a iid; kind }

let push_function st (fn : fn) regs ret_dst =
  if st.depth >= max_call_depth then raise (Machine_fault "call stack overflow");
  let frame_id = Memory.enter st.memory fn.shape in
  st.stack <- { fn; frame_id; regs; blk = 0; pos = 0; ret_dst } :: st.stack;
  st.depth <- st.depth + 1;
  match st.config.checker with
  | Some c -> ignore (Ipds_core.Checker.on_call c fn.func.Mir.Func.name)
  | None -> ()

let new_regs (f : Mir.Func.t) = Array.make (max 1 f.Mir.Func.reg_count) Value.zero

let pop_function st (ret : Value.t) =
  match st.stack with
  | [] -> invalid_arg "Interp: pop on empty stack"
  | a :: rest ->
      Memory.pop_frame st.memory;
      (match st.config.checker with
      | Some c ->
          if not (Ipds_core.Checker.on_return c) then
            raise (Machine_fault "checker protocol violation: return with no frame")
      | None -> ());
      st.stack <- rest;
      st.depth <- st.depth - 1;
      (match rest with
      | [] -> st.stop <- Some (Exited ret)
      | caller :: _ -> (
          match a.ret_dst with
          | Some r -> caller.regs.(Mir.Reg.index r) <- ret
          | None -> ()))

let step st =
  match st.stack with
  | [] -> ()
  | a :: _ -> (
      let f = a.fn.func in
      let blk = f.Mir.Func.blocks.(a.blk) in
      let body = blk.Mir.Block.body in
      if a.pos < Array.length body then begin
        let instr = body.(a.pos) in
        a.pos <- a.pos + 1;
        let iid = instr.Mir.Instr.iid in
        match instr.Mir.Instr.op with
        | Mir.Op.Const (r, n) ->
            a.regs.(Mir.Reg.index r) <- Value.Int n;
            emit st a iid Event.Alu
        | Mir.Op.Move (r, o) ->
            a.regs.(Mir.Reg.index r) <- operand a o;
            emit st a iid Event.Alu
        | Mir.Op.Binop (r, op, x, y) ->
            a.regs.(Mir.Reg.index r) <-
              eval_binop st op (operand a x) (operand a y);
            emit st a iid Event.Alu
        | Mir.Op.Load (r, addr) ->
            (* the cell is resolved before [r] is written, and bound by
               a let over the match, which allocates no tuple *)
            let frame, v, i =
              match addr with
              | Mir.Addr.Direct v -> (var_frame a v, v, 0)
              | Mir.Addr.Index (v, o) -> (var_frame a v, v, index st a o)
              | Mir.Addr.Indirect r ->
                  let p = deref st a r in
                  (p.Value.frame, p.Value.var, p.Value.index)
            in
            a.regs.(Mir.Reg.index r) <- mem_load st ~frame v i;
            if st.tracing then
              emit st a iid (Event.Load { addr = Memory.address st.memory ~frame v i })
        | Mir.Op.Store (addr, o) ->
            let frame, v, i =
              match addr with
              | Mir.Addr.Direct v -> (var_frame a v, v, 0)
              | Mir.Addr.Index (v, o) -> (var_frame a v, v, index st a o)
              | Mir.Addr.Indirect r ->
                  let p = deref st a r in
                  (p.Value.frame, p.Value.var, p.Value.index)
            in
            mem_store st ~frame v i (operand a o);
            if st.tracing then
              emit st a iid (Event.Store { addr = Memory.address st.memory ~frame v i })
        | Mir.Op.Addr_of (r, v, o) ->
            a.regs.(Mir.Reg.index r) <-
              Value.Ptr { Value.frame = var_frame a v; var = v; index = index st a o };
            emit st a iid Event.Alu
        | Mir.Op.Input (r, channel) ->
            a.regs.(Mir.Reg.index r) <-
              Value.Int (Input_script.next st.config.inputs ~channel);
            emit st a iid Event.Input_read
        | Mir.Op.Output o ->
            let n = to_num st (operand a o) in
            st.outputs_rev <- n :: st.outputs_rev;
            if st.tracing then emit st a iid (Event.Output_write n)
        | Mir.Op.Nop -> emit st a iid Event.Alu
        | Mir.Op.Call { dst; callee; args } -> (
            (* The event is emitted only once the call has committed
               (frame pushed, or the extern executed): a stack-overflow
               or extern fault aborts the instruction, and a sink that
               replays calls into a checker must not see a frame the
               inline checker never pushed. *)
            match Names.find st.funcs callee with
            | fn ->
                let regs = new_regs fn.func in
                let reg_count = fn.func.Mir.Func.reg_count in
                List.iteri (fun i o -> if i < reg_count then regs.(i) <- operand a o) args;
                push_function st fn regs dst;
                if st.tracing then emit st a iid (Event.Call { callee })
            | exception Not_found -> (
                let result = exec_extern st callee (List.map (operand a) args) in
                if st.tracing then emit st a iid (Event.Call { callee });
                match dst with
                | Some r -> a.regs.(Mir.Reg.index r) <- result
                | None -> ()))
      end
      else begin
        (* terminator *)
        let iid = blk.Mir.Block.term_iid in
        match blk.Mir.Block.term with
        | Mir.Terminator.Jump target ->
            if st.tracing then
              emit st a iid (Event.Jump { target_pc = a.fn.block_pcs.(target) });
            a.blk <- target;
            a.pos <- 0
        | Mir.Terminator.Branch { cmp; lhs; rhs; if_true; if_false } -> (
            let x = to_num st a.regs.(Mir.Reg.index lhs) in
            let y = to_num st (operand a rhs) in
            let orig_taken = Mir.Cmp.eval cmp x y in
            let pc = pc a iid in
            (* An armed branch fault lands on the first branch commit
               at/after its step; memory faults never reach this point
               (they fire in the run loop).  Exactly one fault per run. *)
            let fault =
              match st.config.tamper with
              | Some { Tamper.site = (Tamper.Cond_flip | Tamper.Insn_skip) as s;
                       at_step; _ }
                when st.injection = None && st.steps >= at_step ->
                  Some s
              | Some _ | None -> None
            in
            match fault with
            | Some Tamper.Insn_skip ->
                (* The branch instruction never executes: no event, no
                   digest update, no checker verdict — control falls
                   through to the not-taken successor.  The committed
                   trace is simply missing one entry, which is what
                   makes this universe hard for trace-shape detectors. *)
                st.injection <- Some (Tamper.Skipped_branch { pc; taken = orig_taken });
                emit st a iid (Event.Fault_inject { skipped = true });
                a.blk <- if_false;
                a.pos <- 0
            | (Some Tamper.Cond_flip | None
              | Some (Tamper.Mem_write _ | Tamper.Mem_write_at _)) as fault ->
            let taken =
              match fault with
              | Some Tamper.Cond_flip ->
                  st.injection <- Some (Tamper.Flipped_branch { pc; orig_taken });
                  emit st a iid (Event.Fault_inject { skipped = false });
                  not orig_taken
              | _ -> orig_taken
            in
            let target = if taken then if_true else if_false in
            st.branches <- st.branches + 1;
            st.trace_digest <- digest_branch st.trace_digest ~pc ~taken;
            if st.config.record_trace then
              st.trace_rev <- (pc, taken) :: st.trace_rev;
            if st.tracing then
              emit st a iid (Event.Branch { taken; target_pc = a.fn.block_pcs.(target) });
            (match st.config.checker with
            | Some c ->
                let v = Ipds_core.Checker.on_branch c ~pc ~taken in
                if not (Ipds_core.Checker.verdict_ok v) then
                  if Ipds_core.Checker.verdict_violation v then
                    raise
                      (Machine_fault "checker protocol violation: branch with no frame")
                  else if st.config.trap_on_alarm then (
                    match Ipds_core.Checker.last_alarm c with
                    | Some a -> st.stop <- Some (Trapped a)
                    | None -> ())
            | None -> ());
            a.blk <- target;
            a.pos <- 0)
        | Mir.Terminator.Return o ->
            let v =
              match o with
              | Some o -> operand a o
              | None -> Value.zero
            in
            emit st a iid Event.Ret;
            pop_function st v
        | Mir.Terminator.Halt ->
            emit st a iid Event.Alu;
            st.stop <- Some Halted
      end)

let run program config =
  let tracing = Option.is_some config.sink in
  let st =
    {
      funcs = resolve_funcs program ~tracing;
      memory = Memory.create program;
      config;
      tracing;
      stack = [];
      depth = 0;
      steps = 0;
      branches = 0;
      outputs_rev = [];
      trace_rev = [];
      trace_digest = 0;
      injection = None;
      stop = None;
    }
  in
  let result reason =
    let reason_tag =
      match reason with
      | Exited _ -> "exit"
      | Halted -> "halt"
      | Fault _ -> "fault"
      | Out_of_steps -> "steps"
      | Trapped _ -> "trap"
    in
    let alarms =
      match config.checker with
      | Some c ->
          (* a run that stops mid-stack (halt/fault/out-of-steps/trap)
             still owes its pending counter deltas to the registry *)
          Ipds_core.Checker.flush c;
          Ipds_core.Checker.alarms c
      | None -> []
    in
    Ipds_obs.Registry.incr m_runs;
    Ipds_obs.Registry.add m_steps st.steps;
    Ipds_obs.Registry.add m_branches st.branches;
    Ipds_obs.Registry.gauge_max m_max_run_steps st.steps;
    Ipds_obs.Registry.observe m_run_steps st.steps;
    (match reason with
    | Fault _ -> Ipds_obs.Registry.incr m_faults
    | Trapped _ -> Ipds_obs.Registry.incr m_traps
    | Exited _ | Halted | Out_of_steps -> ());
    (match st.injection with
    | Some _ -> Ipds_obs.Registry.incr m_injections
    | None -> ());
    if Ipds_obs.Events.enabled () then
      Ipds_obs.Events.emit ~kind:"interp.run"
        [
          ("main", Ipds_obs.Json.String program.Mir.Program.main);
          ("reason", Ipds_obs.Json.String reason_tag);
          ("steps", Ipds_obs.Json.Int st.steps);
          ("branches", Ipds_obs.Json.Int st.branches);
          ("alarms", Ipds_obs.Json.Int (List.length alarms));
          ("tampered", Ipds_obs.Json.Bool (st.injection <> None));
        ];
    {
      reason;
      steps = st.steps;
      branches = st.branches;
      outputs = List.rev st.outputs_rev;
      branch_trace = List.rev st.trace_rev;
      trace_digest = st.trace_digest;
      alarms;
      injection = st.injection;
    }
  in
  try
    (* The sink sees the initial activation as a call event,
       so external models (the IPDS checker in the timing model, the
       remote verdict server) can push main's tables.  Emitted after the
       frame commits, like every other call event. *)
    let main =
      match Names.find_opt st.funcs program.Mir.Program.main with
      | Some fn -> fn
      | None ->
          (* raises Invalid_argument, as it always has *)
          ignore (Mir.Program.find_func_exn program program.Mir.Program.main);
          assert false
    in
    push_function st main (new_regs main.func) None;
    (match config.sink with
    | None -> ()
    | Some f ->
        f
          {
            Event.fname = program.Mir.Program.main;
            iid = 0;
            pc = main.base;
            kind = Event.Call { callee = program.Mir.Program.main };
          });
    let continue = ref true in
    while !continue do
      (match st.stop with
      | Some _ -> continue := false
      | None ->
          if st.steps >= config.max_steps then begin
            st.stop <- Some Out_of_steps;
            continue := false
          end
          else begin
            step st;
            st.steps <- st.steps + 1;
            match config.tamper with
            | Some plan when plan.Tamper.at_step = st.steps -> (
                match plan.Tamper.site with
                | Tamper.Mem_write _ | Tamper.Mem_write_at _ ->
                    st.injection <- Tamper.inject plan st.memory;
                    if Ipds_obs.Events.enabled () then
                      Ipds_obs.Events.emit ~kind:"interp.tamper"
                        [
                          ("main", Ipds_obs.Json.String program.Mir.Program.main);
                          ("at_step", Ipds_obs.Json.Int plan.Tamper.at_step);
                          ("hit", Ipds_obs.Json.Bool (st.injection <> None));
                        ]
                | Tamper.Cond_flip | Tamper.Insn_skip ->
                    (* Branch faults arm here and land at the next branch
                       commit, inside [step]'s terminator case. *)
                    ())
            | Some _ | None -> ()
          end)
    done;
    (match st.stop with
    | Some reason -> result reason
    | None -> result Out_of_steps)
  with Machine_fault msg -> result (Fault msg)

let control_flow_changed (a : outcome) (b : outcome) =
  let reason_tag = function
    | Exited v -> Printf.sprintf "exit:%d" (match v with Value.Int n -> n | Value.Ptr _ -> -1)
    | Halted -> "halt"
    | Fault m -> "fault:" ^ m
    | Out_of_steps -> "steps"
    | Trapped _ -> "trap"
  in
  a.trace_digest <> b.trace_digest
  || a.branches <> b.branches
  || not (String.equal (reason_tag a.reason) (reason_tag b.reason))
