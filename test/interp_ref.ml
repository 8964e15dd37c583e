(* The interpreter and its memory as they were before interp.ml
   resolved functions, pcs and cells once per run: [Interp.run] finding
   each event's pc through [Mir.Layout.pc] and each callee through
   [Program.find_func_exn], [Memory] keeping frames and cells in
   [Hashtbl]s and walking [Data_layout]'s lists for every address, and
   [Tamper.inject]'s cell pick over this module's own memory, all kept
   verbatim.  Only the [interp.*] registry counters and the
   [interp.run]/[interp.tamper] events are left out, so a reference run
   is not counted twice.  test_machine's [oracle] group checks the
   library against it.  Not used by any library. *)

module Mir = Ipds_mir
open Ipds_machine

module Data_layout = struct
  let cell_bytes = Data_layout.cell_bytes
  let globals_base = Data_layout.globals_base
  let stack_top = Data_layout.stack_top

  let global_address (p : Mir.Program.t) var index =
    let rec offset acc = function
      | [] -> invalid_arg "Data_layout.global_address: not a global"
      | v :: rest ->
          if Mir.Var.equal v var then acc
          else offset (acc + (v.Mir.Var.size * cell_bytes)) rest
    in
    globals_base + offset 0 p.globals + (index * cell_bytes)

  let frame_size (f : Mir.Func.t) =
    let cells = List.fold_left (fun acc v -> acc + v.Mir.Var.size) 0 f.locals in
    (* locals + a fixed bookkeeping slop (saved registers, return address) *)
    (cells * cell_bytes) + 32

  let local_offset (f : Mir.Func.t) var index =
    let rec offset acc = function
      | [] -> invalid_arg "Data_layout.local_offset: not a local of this function"
      | v :: rest ->
          if Mir.Var.equal v var then acc
          else offset (acc + (v.Mir.Var.size * cell_bytes)) rest
    in
    offset 0 f.locals + (index * cell_bytes)
end

module Memory = struct
  type frame = {
    id : int;
    func : Mir.Func.t;
    base : int;
    slots : (int, Value.t array) Hashtbl.t;  (* var id -> cells *)
  }

  type t = {
    program : Mir.Program.t;
    globals : (int, Value.t array) Hashtbl.t;
    global_vars : (int, Mir.Var.t) Hashtbl.t;
    mutable stack : frame list;
    mutable next_id : int;
    mutable sp : int;
    live : (int, frame) Hashtbl.t;
  }

  let create (p : Mir.Program.t) =
    let globals = Hashtbl.create 16 in
    let global_vars = Hashtbl.create 16 in
    List.iter
      (fun (v : Mir.Var.t) ->
        Hashtbl.replace globals v.id (Array.make v.size Value.zero);
        Hashtbl.replace global_vars v.id v)
      p.globals;
    {
      program = p;
      globals;
      global_vars;
      stack = [];
      next_id = 1;
      sp = Data_layout.stack_top;
      live = Hashtbl.create 16;
    }

  let push_frame t (f : Mir.Func.t) =
    let id = t.next_id in
    t.next_id <- id + 1;
    t.sp <- t.sp - Data_layout.frame_size f;
    let slots = Hashtbl.create 8 in
    List.iter
      (fun (v : Mir.Var.t) -> Hashtbl.replace slots v.id (Array.make v.size Value.zero))
      f.locals;
    let frame = { id; func = f; base = t.sp; slots } in
    t.stack <- frame :: t.stack;
    Hashtbl.replace t.live id frame;
    id

  let pop_frame t =
    match t.stack with
    | [] -> invalid_arg "Memory.pop_frame: empty stack"
    | frame :: rest ->
        t.stack <- rest;
        t.sp <- frame.base + Data_layout.frame_size frame.func;
        Hashtbl.remove t.live frame.id

  let depth t = List.length t.stack
  let frame_alive t id = id = 0 || Hashtbl.mem t.live id

  let func_of_frame t id =
    match Hashtbl.find_opt t.live id with
    | Some f -> f.func
    | None -> invalid_arg "Memory.func_of_frame: dead frame"

  let active_frame t =
    match t.stack with
    | [] -> invalid_arg "Memory.active_frame: empty stack"
    | frame :: _ -> frame.id

  let cells t ~frame (v : Mir.Var.t) =
    if frame = 0 then Hashtbl.find_opt t.globals v.id
    else
      match Hashtbl.find_opt t.live frame with
      | None -> None
      | Some fr -> Hashtbl.find_opt fr.slots v.id

  let load t ~frame v index =
    match cells t ~frame v with
    | None -> None
    | Some arr -> Some arr.(Ipds_alias.Access.wrap_index v index)

  let store t ~frame v index value =
    match cells t ~frame v with
    | None -> false
    | Some arr ->
        arr.(Ipds_alias.Access.wrap_index v index) <- value;
        true

  let address t ~frame v index =
    let index = Ipds_alias.Access.wrap_index v index in
    if frame = 0 then Data_layout.global_address t.program v index
    else
      match Hashtbl.find_opt t.live frame with
      | Some fr -> fr.base + Data_layout.local_offset fr.func v index
      | None -> 0xdead0000 + (index * Data_layout.cell_bytes)

  let live_cells t ~scope =
    let frame_cells (fr : frame) =
      List.concat_map
        (fun (v : Mir.Var.t) -> List.init v.size (fun i -> (fr.id, v, i)))
        fr.func.locals
    in
    match scope, t.stack with
    | `Active_locals, fr :: _ -> frame_cells fr
    | `Active_locals, [] -> []
    | `Anywhere, stack ->
        let globals =
          Hashtbl.fold
            (fun _id v acc -> List.init v.Mir.Var.size (fun i -> (0, v, i)) @ acc)
            t.global_vars []
        in
        globals @ List.concat_map frame_cells stack
end

(* [Tamper.inject]'s memory faults, over this module's [Memory]. *)
module Tamper_ref = struct
  open Tamper

  let tamper_cell memory (frame, var, index) value =
    match Memory.load memory ~frame var index with
    | None -> None
    | Some old_value ->
        let new_value = Value.Int value in
        if old_value = new_value then None
        else begin
          let stored = Memory.store memory ~frame var index new_value in
          assert stored;
          let addr = Memory.address memory ~frame var index in
          Some (Tampered_cell { frame; var; index; addr; old_value; new_value })
        end

  let inject plan memory =
    match plan.site with
    | Cond_flip | Insn_skip ->
        (* Branch faults land at the next branch commit, inside the
           interpreter — there is no memory cell to pick here. *)
        None
    | Mem_write_at { addr; value } -> (
        (* A physical attack: hit whatever cell the layout put at [addr].
           Under a decorrelated layout the same address resolves to a
           different logical cell (or to nothing at all) — exactly the
           asymmetry the DME baseline detects. *)
        let cell =
          List.find_opt
            (fun (frame, v, i) -> Memory.address memory ~frame v i = addr)
            (Memory.live_cells memory ~scope:`Anywhere)
        in
        match cell with
        | None -> None
        | Some c -> tamper_cell memory c value)
    | Mem_write { model; value } -> (
        let scope =
          match model with
          | Stack_overflow -> `Active_locals
          | Arbitrary_write -> `Anywhere
        in
        match Memory.live_cells memory ~scope with
        | [] -> None
        | candidates ->
            let state = Random.State.make [| plan.seed |] in
            let cell =
              List.nth candidates (Random.State.int state (List.length candidates))
            in
            tamper_cell memory cell value)
end

module Interp = struct
  open Interp

  exception Machine_fault of string

  type act = {
    frame_id : int;
    func : Mir.Func.t;
    regs : Value.t array;
    mutable blk : int;
    mutable pos : int;
    ret_dst : Mir.Reg.t option;
  }

  type state = {
    program : Mir.Program.t;
    layout : Mir.Layout.t;
    memory : Memory.t;
    config : config;
    mutable stack : act list;
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

  (* Resolve an addressing mode to a concrete (frame, var, index) triple. *)
  let resolve st (a : act) = function
    | Mir.Addr.Direct v ->
        let frame = if v.Mir.Var.storage = Mir.Var.Global then 0 else a.frame_id in
        (frame, v, 0)
    | Mir.Addr.Index (v, o) -> (
        let frame = if v.Mir.Var.storage = Mir.Var.Global then 0 else a.frame_id in
        match operand a o with
        | Value.Int i -> (frame, v, i)
        | Value.Ptr _ as p -> (frame, v, to_num st p))
    | Mir.Addr.Indirect r -> (
        match a.regs.(Mir.Reg.index r) with
        | Value.Ptr p ->
            if Memory.frame_alive st.memory p.Value.frame then
              (p.Value.frame, p.Value.var, p.Value.index)
            else raise (Machine_fault "dangling pointer dereference")
        | Value.Int _ -> raise (Machine_fault "dereference of non-pointer"))

  let mem_load st triple =
    let frame, v, i = triple in
    match Memory.load st.memory ~frame v i with
    | Some value -> value
    | None -> raise (Machine_fault "load from dead memory")

  let mem_store st triple value =
    let frame, v, i = triple in
    if not (Memory.store st.memory ~frame v i value) then
      raise (Machine_fault "store to dead memory")

  let output st v =
    st.outputs_rev <- to_num st v :: st.outputs_rev

  (* ---------- external functions ---------- *)

  let as_ptr = function
    | Value.Ptr p ->
        if p.Value.index < 0 || p.Value.index >= p.Value.var.Mir.Var.size then
          raise (Machine_fault "extern: pointer out of bounds")
        else p
    | Value.Int _ -> raise (Machine_fault "extern: expected pointer argument")

  let ptr_cells (p : Value.pointer) n =
    (* indices [p.index, p.index + n) clamped to the variable *)
    let lo = max 0 p.Value.index in
    let hi = min p.Value.var.Mir.Var.size (p.Value.index + max 0 n) in
    List.init (max 0 (hi - lo)) (fun k ->
        (p.Value.frame, p.Value.var, lo + k))

  let exec_extern st name (args : Value.t list) =
    let num = to_num st in
    match name, args with
    | "memset", [ p; v; n ] ->
        let p = as_ptr p in
        List.iter (fun c -> mem_store st c (Value.Int (num v))) (ptr_cells p (num n));
        Value.Int 0
    | "memcpy", [ dst; src; n ] ->
        let dst = as_ptr dst and src = as_ptr src in
        let n = num n in
        let values = List.map (mem_load st) (ptr_cells src n) in
        let cells = ptr_cells dst n in
        List.iteri
          (fun i c -> match List.nth_opt values i with
            | Some v -> mem_store st c v
            | None -> ())
          cells;
        Value.Int 0
    | "strcmp", [ a; b ] ->
        let a = as_ptr a and b = as_ptr b in
        let cell (p : Value.pointer) i =
          if p.Value.index + i < p.Value.var.Mir.Var.size then
            num (mem_load st (p.Value.frame, p.Value.var, p.Value.index + i))
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
          else if num (mem_load st (p.Value.frame, p.Value.var, p.Value.index + i)) = 0
          then i
          else len (i + 1)
        in
        Value.Int (len 0)
    | "checksum", [ p; n ] ->
        let p = as_ptr p in
        let sum =
          List.fold_left (fun acc c -> acc + num (mem_load st c)) 0 (ptr_cells p (num n))
        in
        Value.Int sum
    | "hash_pw", [ p; n ] ->
        let p = as_ptr p in
        let h =
          List.fold_left
            (fun acc c -> (acc * 31) + num (mem_load st c))
            17 (ptr_cells p (num n))
        in
        Value.Int (h land 0xffffff)
    | "log_msg", [ _; _ ] -> Value.Int 0
    | "send", [ _; n ] -> Value.Int (num n)
    | ("recv" | "read_line"), [ p; n ] ->
        let p = as_ptr p in
        let channel = if String.equal name "recv" then 1 else 0 in
        let cells = ptr_cells p (num n) in
        List.iter
          (fun c ->
            mem_store st c (Value.Int (Input_script.next st.config.inputs ~channel)))
          cells;
        Value.Int (List.length cells)
    | "syscall", _ -> Value.Int 0
    | _, _ ->
        raise (Machine_fault (Printf.sprintf "extern %s: bad arity or unknown" name))

  (* ---------- the main loop ---------- *)

  let emit st (a : act) iid kind =
    match st.config.sink with
    | None -> ()
    | Some f ->
        f
          {
            Event.fname = a.func.Mir.Func.name;
            iid;
            pc = Mir.Layout.pc st.layout ~fname:a.func.Mir.Func.name ~iid;
            kind;
          }

  let push_function st callee (args : Value.t list) ret_dst =
    let f = Mir.Program.find_func_exn st.program callee in
    if List.length st.stack >= max_call_depth then
      raise (Machine_fault "call stack overflow");
    let frame_id = Memory.push_frame st.memory f in
    let regs = Array.make (max 1 f.Mir.Func.reg_count) Value.zero in
    List.iteri (fun i v -> if i < f.Mir.Func.reg_count then regs.(i) <- v) args;
    let a = { frame_id; func = f; regs; blk = 0; pos = 0; ret_dst } in
    st.stack <- a :: st.stack;
    (match st.config.checker with
    | Some c -> ignore (Ipds_core.Checker.on_call c callee)
    | None -> ())

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
        (match rest with
        | [] -> st.stop <- Some (Exited ret)
        | caller :: _ -> (
            match a.ret_dst with
            | Some r -> caller.regs.(Mir.Reg.index r) <- ret
            | None -> ()))

  let first_iid (f : Mir.Func.t) blk_idx =
    let blk = f.blocks.(blk_idx) in
    if Array.length blk.Mir.Block.body > 0 then blk.Mir.Block.body.(0).Mir.Instr.iid
    else blk.Mir.Block.term_iid

  let step st =
    match st.stack with
    | [] -> ()
    | a :: _ -> (
        let blk = a.func.Mir.Func.blocks.(a.blk) in
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
              let triple = resolve st a addr in
              a.regs.(Mir.Reg.index r) <- mem_load st triple;
              let frame, v, i = triple in
              emit st a iid (Event.Load { addr = Memory.address st.memory ~frame v i })
          | Mir.Op.Store (addr, o) ->
              let triple = resolve st a addr in
              mem_store st triple (operand a o);
              let frame, v, i = triple in
              emit st a iid (Event.Store { addr = Memory.address st.memory ~frame v i })
          | Mir.Op.Addr_of (r, v, o) ->
              let index =
                match operand a o with
                | Value.Int n -> n
                | Value.Ptr _ as p -> to_num st p
              in
              let frame = if v.Mir.Var.storage = Mir.Var.Global then 0 else a.frame_id in
              a.regs.(Mir.Reg.index r) <- Value.Ptr { Value.frame; var = v; index };
              emit st a iid Event.Alu
          | Mir.Op.Input (r, channel) ->
              a.regs.(Mir.Reg.index r) <-
                Value.Int (Input_script.next st.config.inputs ~channel);
              emit st a iid Event.Input_read
          | Mir.Op.Output o ->
              let v = operand a o in
              output st v;
              emit st a iid (Event.Output_write (to_num st v))
          | Mir.Op.Nop -> emit st a iid Event.Alu
          | Mir.Op.Call { dst; callee; args } ->
              (* The event is emitted only once the call has committed
                 (frame pushed, or the extern executed): a stack-overflow
                 or extern fault aborts the instruction, and a sink that
                 replays calls into a checker must not see a frame the
                 inline checker never pushed. *)
              let argv = List.map (operand a) args in
              if Mir.Program.is_defined st.program callee then begin
                push_function st callee argv dst;
                emit st a iid (Event.Call { callee })
              end
              else begin
                let result = exec_extern st callee argv in
                emit st a iid (Event.Call { callee });
                match dst with
                | Some r -> a.regs.(Mir.Reg.index r) <- result
                | None -> ()
              end
        end
        else begin
          (* terminator *)
          let iid = blk.Mir.Block.term_iid in
          match blk.Mir.Block.term with
          | Mir.Terminator.Jump target ->
              emit st a iid
                (Event.Jump
                   {
                     target_pc =
                       Mir.Layout.pc st.layout ~fname:a.func.Mir.Func.name
                         ~iid:(first_iid a.func target);
                   });
              a.blk <- target;
              a.pos <- 0
          | Mir.Terminator.Branch { cmp; lhs; rhs; if_true; if_false } -> (
              let x = to_num st a.regs.(Mir.Reg.index lhs) in
              let y = to_num st (operand a rhs) in
              let orig_taken = Mir.Cmp.eval cmp x y in
              let pc = Mir.Layout.pc st.layout ~fname:a.func.Mir.Func.name ~iid in
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
              emit st a iid
                (Event.Branch
                   {
                     taken;
                     target_pc =
                       Mir.Layout.pc st.layout ~fname:a.func.Mir.Func.name
                         ~iid:(first_iid a.func target);
                   });
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
    let st =
      {
        program;
        layout = Mir.Layout.make program;
        memory = Memory.create program;
        config;
        stack = [];
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
      let alarms =
        match config.checker with
        | Some c ->
            (* a run that stops mid-stack (halt/fault/out-of-steps/trap)
               still owes its pending counter deltas to the registry *)
            Ipds_core.Checker.flush c;
            Ipds_core.Checker.alarms c
        | None -> []
      in
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
      push_function st program.Mir.Program.main [] None;
      (match config.sink with
      | None -> ()
      | Some f ->
          f
            {
              Event.fname = program.Mir.Program.main;
              iid = 0;
              pc = Mir.Layout.func_base st.layout program.Mir.Program.main;
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
                      st.injection <- Tamper_ref.inject plan st.memory
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

end
