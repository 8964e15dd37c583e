(* Forward interval/predicate flow over registers, solved on the generic
   dataflow framework with branch-edge refinement and widening.

   Registers are the right granularity for soundness under tampering:
   the attacker model mutates *memory*, and memory only reaches a
   register through [Load] — which this analysis maps to [top].  So a
   fact proved here holds for every execution, tampered or not, and a
   branch direction whose inverse image meets the incoming facts at
   [Never] can be pruned from the feasible CFG without ever mispruning a
   tampered run into silence. *)

module Mir = Ipds_mir
module Feas = Ipds_cfg.Feasibility

(* [Array.map2] makes its result from the first element it computes: a
   young one over 256 registers forces a minor collection.  A copy is
   made without one, then overwritten in the same order. *)
let map2 f x y =
  let r = Array.copy x in
  Array.iteri (fun i a -> r.(i) <- f a y.(i)) x;
  r

module Domain = struct
  type t =
    | Unreachable
    | Env of Pred.t array  (* indexed by register *)

  let equal a b =
    match a, b with
    | Unreachable, Unreachable -> true
    | Env x, Env y -> Array.for_all2 Pred.equal x y
    | (Unreachable | Env _), _ -> false

  let join a b =
    match a, b with
    | Unreachable, x | x, Unreachable -> x
    | Env x, Env y -> Env (map2 Pred.join x y)
end

module Solver = Ipds_dataflow.Framework.Forward (Domain)

type t = {
  func : Mir.Func.t;
  feas : Feas.t option;
  block_in : Domain.t array;
}

let as_point = function
  | Pred.In i -> (
      match i.Interval.lo, i.Interval.hi with
      | Some l, Some h when l = h -> Some l
      | (Some _ | None), (Some _ | None) -> None)
  | Pred.Except _ | Pred.Never -> None

let eval_binop op pa pb =
  match as_point pa, as_point pb with
  | Some a, Some b -> Pred.In (Interval.point (Mir.Binop.eval op a b))
  | a_pt, b_pt -> (
      match op with
      | Mir.Binop.Add -> (
          match a_pt, b_pt, pa, pb with
          | _, Some k, _, _ -> Pred.shift pa k
          | Some k, _, _, _ -> Pred.shift pb k
          | None, None, Pred.In ia, Pred.In ib -> Pred.In (Interval.add ia ib)
          | None, None, _, _ -> Pred.top)
      | Mir.Binop.Sub -> (
          match a_pt, b_pt, pa, pb with
          | _, Some k, _, _ -> Pred.shift pa (-k)
          | Some k, _, _, _ -> Pred.shift (Pred.neg pb) k
          | None, None, Pred.In ia, Pred.In ib -> Pred.In (Interval.sub ia ib)
          | None, None, _, _ -> Pred.top)
      | Mir.Binop.Mul -> (
          match a_pt, b_pt, pa, pb with
          | _, Some k, Pred.In ia, _ -> Pred.In (Interval.mul_const ia k)
          | Some k, _, _, Pred.In ib -> Pred.In (Interval.mul_const ib k)
          | _, _, _, _ -> Pred.top)
      | Mir.Binop.Div | Mir.Binop.Rem | Mir.Binop.And | Mir.Binop.Or
      | Mir.Binop.Xor | Mir.Binop.Shl | Mir.Binop.Shr ->
          Pred.top)

let operand env = function
  | Mir.Operand.Reg r -> env.(Mir.Reg.index r)
  | Mir.Operand.Imm n -> Pred.In (Interval.point n)

let set env r p =
  let env = Array.copy env in
  env.(Mir.Reg.index r) <- p;
  env

let step env (i : Mir.Instr.t) =
  match i.op with
  | Mir.Op.Const (r, n) -> set env r (Pred.In (Interval.point n))
  | Mir.Op.Move (r, o) -> set env r (operand env o)
  | Mir.Op.Binop (r, op, a, b) ->
      set env r (eval_binop op (operand env a) (operand env b))
  | Mir.Op.Load (r, _) | Mir.Op.Addr_of (r, _, _) | Mir.Op.Input (r, _) ->
      set env r Pred.top
  | Mir.Op.Call { dst = Some r; _ } -> set env r Pred.top
  | Mir.Op.Call { dst = None; _ } | Mir.Op.Store _ | Mir.Op.Output _
  | Mir.Op.Nop ->
      env

let transfer_block (f : Mir.Func.t) b d =
  match d with
  | Domain.Unreachable -> Domain.Unreachable
  | Domain.Env env ->
      Domain.Env (Array.fold_left step env f.blocks.(b).Mir.Block.body)

let swap_cmp = function
  | Mir.Cmp.Eq -> Mir.Cmp.Eq
  | Mir.Cmp.Ne -> Mir.Cmp.Ne
  | Mir.Cmp.Lt -> Mir.Cmp.Gt
  | Mir.Cmp.Le -> Mir.Cmp.Ge
  | Mir.Cmp.Gt -> Mir.Cmp.Lt
  | Mir.Cmp.Ge -> Mir.Cmp.Le

(* [Some pred] constraining [reg] for the branch to go [taken], when one
   side of the comparison is statically a single value. *)
let direction_pred env cmp lhs rhs ~taken =
  match rhs with
  | Mir.Operand.Imm k -> Some (lhs, Cond.value_pred Cond.identity cmp k ~taken)
  | Mir.Operand.Reg r2 -> (
      match as_point env.(Mir.Reg.index r2) with
      | Some k -> Some (lhs, Cond.value_pred Cond.identity cmp k ~taken)
      | None -> (
          match as_point env.(Mir.Reg.index lhs) with
          | Some k ->
              (* k cmp r2  <=>  r2 (swap cmp) k *)
              Some (r2, Cond.value_pred Cond.identity (swap_cmp cmp) k ~taken)
          | None -> None))

let refine_edge (f : Mir.Func.t) ~src ~dst d =
  match d with
  | Domain.Unreachable -> Domain.Unreachable
  | Domain.Env env -> (
      match f.blocks.(src).Mir.Block.term with
      | Mir.Terminator.Branch { cmp; lhs; rhs; if_true; if_false }
        when if_true <> if_false && (dst = if_true || dst = if_false) -> (
          let taken = dst = if_true in
          match direction_pred env cmp lhs rhs ~taken with
          | None -> d
          | Some (r, p) -> (
              let idx = Mir.Reg.index r in
              match Pred.meet env.(idx) p with
              | Pred.Never -> Domain.Unreachable
              | m when Pred.equal m env.(idx) -> d
              | m ->
                  let env = Array.copy env in
                  env.(idx) <- m;
                  Domain.Env env))
      | Mir.Terminator.Branch _ | Mir.Terminator.Jump _
      | Mir.Terminator.Return _ | Mir.Terminator.Halt ->
          d)

let widen a b =
  match a, b with
  | Domain.Unreachable, x | x, Domain.Unreachable -> x
  | Domain.Env x, Domain.Env y -> Domain.Env (map2 Pred.widen x y)

let analyze ?feas (f : Mir.Func.t) =
  let view =
    match feas with
    | Some feas -> Feas.view feas
    | None -> Feas.view_of_cfg (Ipds_cfg.Cfg.make f)
  in
  let entry = Domain.Env (Array.make f.Mir.Func.reg_count Pred.top) in
  let block_in, _ =
    Solver.solve ~edge:(refine_edge f) ~widen view ~entry
      ~bottom:Domain.Unreachable
      ~transfer:(transfer_block f)
  in
  { func = f; feas; block_in }

let env_at_term t b =
  match transfer_block t.func b t.block_in.(b) with
  | Domain.Unreachable -> None
  | Domain.Env env -> Some env

let infeasible_directions t =
  let f = t.func in
  let already iid taken =
    match t.feas with Some fe -> Feas.is_pruned fe iid taken | None -> false
  in
  let out = ref [] in
  Array.iteri
    (fun b (blk : Mir.Block.t) ->
      match blk.term with
      | Mir.Terminator.Branch { cmp; lhs; rhs; if_true; if_false }
        when if_true <> if_false -> (
          match env_at_term t b with
          | None -> ()
          | Some env ->
              List.iter
                (fun taken ->
                  if not (already blk.term_iid taken) then
                    match direction_pred env cmp lhs rhs ~taken with
                    | Some (r, p)
                      when Pred.equal
                             (Pred.meet env.(Mir.Reg.index r) p)
                             Pred.Never ->
                        out := (blk.term_iid, taken) :: !out
                    | Some _ | None -> ())
                [ true; false ])
      | Mir.Terminator.Branch _ | Mir.Terminator.Jump _
      | Mir.Terminator.Return _ | Mir.Terminator.Halt ->
          ())
    f.blocks;
  List.sort compare !out
