module Mir = Ipds_mir

type target =
  | No_target
  | Exact of Cell.t
  | Within of Mir.Var.Set.t

type t = {
  program : Mir.Program.t;
  points_to : Points_to.t;
  summaries : string -> Summary.t;
  func : Mir.Func.t;
  globals : Mir.Var.Set.t;
  locals : Mir.Var.Set.t;
}

let make program points_to ~summaries (func : Mir.Func.t) =
  let set_of vs = List.fold_left (fun s v -> Mir.Var.Set.add v s) Mir.Var.Set.empty vs in
  {
    program;
    points_to;
    summaries;
    func;
    globals = set_of program.globals;
    locals = set_of func.locals;
  }

let wrap_index (v : Mir.Var.t) i =
  let m = i mod v.size in
  if m < 0 then m + v.size else m

(* Pointees of a points-to set, seen from this function: named variables
   directly; parameter pointees may alias address-taken globals (they
   cannot alias the current frame, which postdates them); unknown pointees
   may alias anything address-taken. *)
let pointee_vars t (pts : Pt_set.t) =
  let taken = Points_to.address_taken t.points_to in
  let base = pts.vars in
  let base =
    if not (Pt_set.Int_set.is_empty pts.params) then
      Mir.Var.Set.union base (Mir.Var.Set.inter taken t.globals)
    else base
  in
  if pts.unknown then Mir.Var.Set.union base taken else base

let target_of_vars vs =
  if Mir.Var.Set.is_empty vs then No_target
  else
    match Mir.Var.Set.elements vs with
    | [ v ] when Mir.Var.is_scalar v -> Exact (Cell.of_scalar v)
    | _ :: _ | [] -> Within vs

let addr_target t = function
  | Mir.Addr.Direct v -> Exact (Cell.make v 0)
  | Mir.Addr.Index (v, Mir.Operand.Imm i) -> Exact (Cell.make v (wrap_index v i))
  | Mir.Addr.Index (v, Mir.Operand.Reg _) -> Within (Mir.Var.Set.singleton v)
  | Mir.Addr.Indirect r ->
      let pts = Points_to.reg t.points_to ~fname:t.func.Mir.Func.name r in
      target_of_vars (pointee_vars t pts)

let operand_pts t (o : Mir.Operand.t) =
  match o with
  | Mir.Operand.Reg r -> Points_to.reg t.points_to ~fname:t.func.Mir.Func.name r
  | Mir.Operand.Imm _ -> Pt_set.empty

(* A summary's effect instantiated at a call site, restricted to the
   variables visible in this function (own locals and globals). *)
let call_target t callee args =
  let s = t.summaries callee in
  if s.Summary.any then
    (* The paper's wildcard pseudo-store: the call may modify any
       variable. *)
    target_of_vars (Mir.Var.Set.union t.globals t.locals)
  else begin
    let arg_pointees =
      Pt_set.Int_set.fold
        (fun pos acc ->
          match List.nth_opt args pos with
          | Some o -> Mir.Var.Set.union acc (pointee_vars t (operand_pts t o))
          | None -> acc)
        s.Summary.args Mir.Var.Set.empty
    in
    let visible_foreign =
      Mir.Var.Set.inter s.Summary.foreign_vars
        (Mir.Var.Set.union t.locals t.globals)
    in
    target_of_vars
      (Mir.Var.Set.union arg_pointees
         (Mir.Var.Set.union s.Summary.globals visible_foreign))
  end

let may_defs t = function
  | Mir.Op.Store (a, _) -> addr_target t a
  | Mir.Op.Call { callee; args; _ } -> call_target t callee args
  | Mir.Op.Const _ | Mir.Op.Move _ | Mir.Op.Binop _ | Mir.Op.Load _
  | Mir.Op.Addr_of _ | Mir.Op.Input _ | Mir.Op.Output _ | Mir.Op.Nop ->
      No_target

let may_touch target cell =
  match target with
  | No_target -> false
  | Exact c -> Cell.equal c cell
  | Within vs -> Mir.Var.Set.mem cell.Cell.var vs
