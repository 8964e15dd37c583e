module Mir = Ipds_mir

type shape = {
  func : Mir.Func.t;
  vars : Mir.Var.t array;  (* the locals: slot [s] holds [vars.(s)] *)
  offsets : int array;  (* [Data_layout.offsets] of the locals, by slot *)
  size : int;  (* [Data_layout.frame_size] *)
}

type frame = {
  id : int;
  shape : shape;
  base : int;
  slots : Value.t array array;  (* slot -> cells *)
}

(* Everything keyed by variable id is an array over the program's ids,
   built once per run: [[||]] and [-1] mark a variable that is not
   there (a variable has at least one cell and a non-negative
   address). *)
type t = {
  program : Mir.Program.t;
  globals : Value.t array array;  (* var id -> cells *)
  global_addrs : int array;  (* var id -> address of cell 0 *)
  slot_of : int array;  (* var id -> slot among its function's locals *)
  mutable frames : frame array;  (* live frames, outermost first *)
  mutable depth : int;
  mutable next_id : int;
  mutable sp : int;
}

let create (p : Mir.Program.t) =
  let bump n (v : Mir.Var.t) = max n (v.id + 1) in
  let ids =
    List.fold_left
      (fun n (f : Mir.Func.t) -> List.fold_left bump n f.locals)
      (List.fold_left bump p.var_count p.globals)
      p.funcs
  in
  let globals = Array.make ids [||] in
  let global_addrs = Array.make ids (-1) in
  List.iter2
    (fun (v : Mir.Var.t) off ->
      globals.(v.id) <- Array.make v.size Value.zero;
      (* the first declaration places a variable, as in global_address *)
      if global_addrs.(v.id) < 0 then
        global_addrs.(v.id) <- Data_layout.globals_base + off)
    p.globals (Data_layout.offsets p.globals);
  let slot_of = Array.make ids (-1) in
  List.iter
    (fun (f : Mir.Func.t) ->
      List.iteri
        (fun s (v : Mir.Var.t) -> if slot_of.(v.id) < 0 then slot_of.(v.id) <- s)
        f.locals)
    p.funcs;
  {
    program = p;
    globals;
    global_addrs;
    slot_of;
    frames = [||];
    depth = 0;
    next_id = 1;
    sp = Data_layout.stack_top;
  }

let shape (f : Mir.Func.t) =
  {
    func = f;
    vars = Array.of_list f.locals;
    offsets = Array.of_list (Data_layout.offsets f.locals);
    size = Data_layout.frame_size f;
  }

let enter t shape =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.sp <- t.sp - shape.size;
  let slots = Array.map (fun (v : Mir.Var.t) -> Array.make v.size Value.zero) shape.vars in
  let frame = { id; shape; base = t.sp; slots } in
  if t.depth = Array.length t.frames then begin
    let grown = Array.make (max 8 (2 * t.depth)) frame in
    Array.blit t.frames 0 grown 0 t.depth;
    t.frames <- grown
  end;
  t.frames.(t.depth) <- frame;
  t.depth <- t.depth + 1;
  id

let push_frame t f = enter t (shape f)

let pop_frame t =
  if t.depth = 0 then invalid_arg "Memory.pop_frame: empty stack";
  t.depth <- t.depth - 1;
  let frame = t.frames.(t.depth) in
  t.sp <- frame.base + frame.shape.size

let depth t = t.depth

(* The position of live frame [id] in [t.frames], or -1.  Ids grow with
   depth, so after the innermost frame (the usual case) it is a binary
   search. *)
let find t id =
  let d = t.depth in
  if d > 0 && t.frames.(d - 1).id = id then d - 1
  else
    let rec search lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) / 2 in
        let m = t.frames.(mid).id in
        if m = id then mid else if m < id then search (mid + 1) hi else search lo mid
    in
    search 0 (d - 1)

let frame_alive t id = id = 0 || find t id >= 0

let active_frame t =
  if t.depth = 0 then invalid_arg "Memory.active_frame: empty stack";
  t.frames.(t.depth - 1).id

(* [v]'s slot in [frame], or -1.  The program-wide [slot_of] is right
   unless [v] is declared by more than one function. *)
let slot t frame (v : Mir.Var.t) =
  let vars = frame.shape.vars in
  let s = if v.id < Array.length t.slot_of then t.slot_of.(v.id) else -1 in
  if s >= 0 && s < Array.length vars && vars.(s).id = v.id then s
  else
    let rec scan s =
      if s >= Array.length vars then -1 else if vars.(s).id = v.id then s else scan (s + 1)
    in
    scan 0

let cells t ~frame (v : Mir.Var.t) =
  if frame = 0 then if v.id < Array.length t.globals then t.globals.(v.id) else [||]
  else
    match find t frame with
    | -1 -> [||]
    | k ->
        let fr = t.frames.(k) in
        let s = slot t fr v in
        if s < 0 then [||] else fr.slots.(s)

let wrap (v : Mir.Var.t) index =
  if index >= 0 && index < v.size then index else Ipds_alias.Access.wrap_index v index

let load t ~frame v index =
  let arr = cells t ~frame v in
  if Array.length arr = 0 then None else Some arr.(wrap v index)

let store t ~frame v index value =
  let arr = cells t ~frame v in
  if Array.length arr = 0 then false
  else begin
    arr.(wrap v index) <- value;
    true
  end

let address t ~frame (v : Mir.Var.t) index =
  let index = wrap v index in
  if frame = 0 then
    let a = if v.id < Array.length t.global_addrs then t.global_addrs.(v.id) else -1 in
    if a < 0 then Data_layout.global_address t.program v index
    else a + (index * Data_layout.cell_bytes)
  else
    match find t frame with
    | -1 -> 0xdead0000 + (index * Data_layout.cell_bytes)
    | k ->
        let fr = t.frames.(k) in
        let s = slot t fr v in
        if s < 0 then fr.base + Data_layout.local_offset fr.shape.func v index
        else fr.base + fr.shape.offsets.(s) + (index * Data_layout.cell_bytes)

let live_cells t ~scope =
  let frame_cells (fr : frame) =
    List.concat_map
      (fun (v : Mir.Var.t) -> List.init v.size (fun i -> (fr.id, v, i)))
      fr.shape.func.locals
  in
  let innermost_first = List.init t.depth (fun k -> t.frames.(t.depth - 1 - k)) in
  match scope, innermost_first with
  | `Active_locals, fr :: _ -> frame_cells fr
  | `Active_locals, [] -> []
  | `Anywhere, stack ->
      (* Globals come in the order a fold over an id-keyed Hashtbl,
         filled in declaration order, visits them: the order Tamper's
         seeded pick has always indexed into. *)
      let by_id = Hashtbl.create 16 in
      List.iter (fun (v : Mir.Var.t) -> Hashtbl.replace by_id v.id v) t.program.globals;
      let globals =
        Hashtbl.fold
          (fun _id v acc -> List.init v.Mir.Var.size (fun i -> (0, v, i)) @ acc)
          by_id []
      in
      globals @ List.concat_map frame_cells stack
