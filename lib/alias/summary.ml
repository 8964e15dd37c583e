module Mir = Ipds_mir
module Int_set = Pt_set.Int_set

type t = {
  args : Int_set.t;
  globals : Mir.Var.Set.t;
  foreign_vars : Mir.Var.Set.t;
  any : bool;
}

let writes_nothing =
  {
    args = Int_set.empty;
    globals = Mir.Var.Set.empty;
    foreign_vars = Mir.Var.Set.empty;
    any = false;
  }

let is_pure t =
  (not t.any) && Int_set.is_empty t.args
  && Mir.Var.Set.is_empty t.globals
  && Mir.Var.Set.is_empty t.foreign_vars

let union a b =
  {
    args = Int_set.union a.args b.args;
    globals = Mir.Var.Set.union a.globals b.globals;
    foreign_vars = Mir.Var.Set.union a.foreign_vars b.foreign_vars;
    any = a.any || b.any;
  }

let equal a b =
  Int_set.equal a.args b.args
  && Mir.Var.Set.equal a.globals b.globals
  && Mir.Var.Set.equal a.foreign_vars b.foreign_vars
  && Bool.equal a.any b.any

let fingerprint buf t =
  Buffer.add_string buf "a[";
  Pt_set.add_ints buf t.args;
  Buffer.add_string buf "]g[";
  Pt_set.add_var_ids buf t.globals;
  Buffer.add_string buf "]f[";
  Pt_set.add_var_ids buf t.foreign_vars;
  Buffer.add_char buf ']';
  Buffer.add_char buf (if t.any then '*' else '.')

type mode =
  [ `Faithful
  | `Precise_globals
  ]

let of_extern = function
  | Mir.Extern.Pure -> writes_nothing
  | Mir.Extern.Writes_args positions ->
      { writes_nothing with args = Int_set.of_list positions }
  | Mir.Extern.Writes_anything -> { writes_nothing with any = true }

(* Effect of writing through the pointers an operand may carry, seen from
   the function containing the write.  Parameter pointees cannot alias the
   current frame (they predate it), so they contribute argument effects
   only; [unknown] pointees may alias anything address-taken. *)
let deref_effect (pts : Pt_set.t) ~globals_of =
  let globals, locals = Mir.Var.Set.partition globals_of pts.vars in
  {
    args = pts.params;
    globals;
    foreign_vars = locals;
    any = pts.unknown;
  }

let compute (p : Mir.Program.t) (pt : Points_to.t) ~mode =
  let globals_set =
    List.fold_left (fun acc v -> Mir.Var.Set.add v acc) Mir.Var.Set.empty p.globals
  in
  let globals_of v = Mir.Var.Set.mem v globals_set in
  let table : (string, t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (f : Mir.Func.t) -> Hashtbl.replace table f.name writes_nothing)
    p.funcs;
  let current name =
    match Hashtbl.find_opt table name with
    | Some s -> s
    | None -> of_extern (Mir.Program.extern_summary p name)
  in
  let operand_pts fname (o : Mir.Operand.t) =
    match o with
    | Mir.Operand.Reg r -> Points_to.reg pt ~fname r
    | Mir.Operand.Imm _ -> Pt_set.empty
  in
  (* Effect contributed at a call site: instantiate the callee's argument
     effects with the actual arguments' pointees. *)
  let call_effect fname callee args =
    let callee_sum = current callee in
    let arg_effects =
      Int_set.fold
        (fun pos acc ->
          match List.nth_opt args pos with
          | Some o -> union acc (deref_effect (operand_pts fname o) ~globals_of)
          | None -> { acc with any = true })
        callee_sum.args writes_nothing
    in
    union arg_effects
      { callee_sum with args = Int_set.empty (* instantiated above *) }
  in
  let func_effect (f : Mir.Func.t) =
    let acc = ref writes_nothing in
    Mir.Func.iter_instrs f (fun _iid op ->
        match op with
        | Mir.Op.Store (a, _) -> (
            match a with
            | Mir.Addr.Direct v | Mir.Addr.Index (v, _) ->
                if globals_of v then
                  acc := union !acc { writes_nothing with globals = Mir.Var.Set.singleton v }
                (* direct stores to own locals are invisible to callers *)
            | Mir.Addr.Indirect r ->
                acc :=
                  union !acc (deref_effect (Points_to.reg pt ~fname:f.name r) ~globals_of))
        | Mir.Op.Call { callee; args; _ } ->
            acc := union !acc (call_effect f.name callee args)
        | Mir.Op.Const _ | Mir.Op.Move _ | Mir.Op.Binop _ | Mir.Op.Load _
        | Mir.Op.Addr_of _ | Mir.Op.Input _ | Mir.Op.Output _ | Mir.Op.Nop ->
            ())
    ;
    !acc
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Mir.Func.t) ->
        let updated = union (Hashtbl.find table f.name) (func_effect f) in
        if not (equal updated (Hashtbl.find table f.name)) then begin
          Hashtbl.replace table f.name updated;
          changed := true
        end)
      p.funcs
  done;
  let faithful s =
    if
      s.any
      || not (Mir.Var.Set.is_empty s.globals)
      || not (Mir.Var.Set.is_empty s.foreign_vars)
    then { writes_nothing with args = s.args; any = true }
    else s
  in
  fun name ->
    let s = current name in
    match mode with
    | `Faithful -> if Mir.Program.is_defined p name then faithful s else s
    | `Precise_globals -> s
