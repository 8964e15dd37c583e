module Mir = Ipds_mir
module Range = Ipds_range

type t = {
  branch_iid : int;
  cell : Ipds_alias.Cell.t;
  load_iid : int;
  affine : Range.Cond.affine;
  cmp : Mir.Cmp.t;
  konst : int;
}

let of_branch ctx branch_iid =
  let f = ctx.Context.func in
  let term =
    match Mir.Func.location f branch_iid with
    | Mir.Func.Term b -> f.blocks.(b).Mir.Block.term
    | Mir.Func.Body _ -> invalid_arg "Depend.of_branch: not a terminator"
  in
  match term with
  | Mir.Terminator.Branch { cmp; lhs; rhs; _ } -> (
      let s_lhs = Trace.reg ctx ~at:branch_iid lhs in
      let s_rhs = Trace.operand ctx ~at:branch_iid rhs in
      match s_lhs, s_rhs with
      | _, Trace.Const konst -> (
          match Trace.load_anchor ctx s_lhs with
          | Some (load_iid, cell, affine) ->
              Some { branch_iid; cell; load_iid; affine; cmp; konst }
          | None -> None)
      | Trace.Const konst, _ -> (
          (* konst cmp value  ≡  value (swap cmp) konst *)
          match Trace.load_anchor ctx s_rhs with
          | Some (load_iid, cell, affine) ->
              Some
                { branch_iid; cell; load_iid; affine; cmp = Mir.Cmp.swap cmp; konst }
          | None -> None)
      | (Trace.Val _ | Trace.Opaque), (Trace.Val _ | Trace.Opaque) -> None)
  | Mir.Terminator.Jump _ | Mir.Terminator.Return _ | Mir.Terminator.Halt ->
      invalid_arg "Depend.of_branch: not a conditional branch"

let all ctx =
  List.filter_map
    (fun (iid, _) -> of_branch ctx iid)
    (Mir.Func.branches ctx.Context.func)

let taken_pred t ~taken = Range.Cond.value_pred t.affine t.cmp t.konst ~taken
let forced_direction t pred = Range.Cond.forced_direction t.affine t.cmp t.konst pred

let pp ppf t =
  Format.fprintf ppf "br@%d on %a (load@%d, %+d%s) %s %d" t.branch_iid
    Ipds_alias.Cell.pp t.cell t.load_iid t.affine.Range.Cond.offset
    (if t.affine.Range.Cond.scale < 0 then ", negated" else "")
    (Mir.Cmp.to_string t.cmp) t.konst
