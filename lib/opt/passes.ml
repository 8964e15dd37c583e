module Mir = Ipds_mir
module Rd = Ipds_dataflow.Reaching_defs

let max_depth = 50

(* ---------- constant propagation / folding ---------- *)

let rec const_of_reg rdefs (f : Mir.Func.t) ~depth ~at r =
  if depth > max_depth then None
  else
    match Rd.unique_def rdefs ~iid:at r with
    | None | Some Rd.Entry -> None
    | Some (Rd.At d) -> (
        match Mir.Func.op_at f d with
        | Some (Mir.Op.Const (_, n)) -> Some n
        | Some (Mir.Op.Move (_, o)) -> const_of_operand rdefs f ~depth:(depth + 1) ~at:d o
        | Some (Mir.Op.Binop (_, op, a, b)) -> (
            match
              ( const_of_operand rdefs f ~depth:(depth + 1) ~at:d a,
                const_of_operand rdefs f ~depth:(depth + 1) ~at:d b )
            with
            | Some x, Some y -> Some (Mir.Binop.eval op x y)
            | (Some _ | None), (Some _ | None) -> None)
        | Some
            ( Mir.Op.Load _ | Mir.Op.Store _ | Mir.Op.Addr_of _ | Mir.Op.Call _
            | Mir.Op.Input _ | Mir.Op.Output _ | Mir.Op.Nop )
        | None ->
            None)

and const_of_operand rdefs f ~depth ~at (o : Mir.Operand.t) =
  match o with
  | Mir.Operand.Imm n -> Some n
  | Mir.Operand.Reg r -> const_of_reg rdefs f ~depth ~at r

let const_prop_func (f : Mir.Func.t) =
  let cfg = Ipds_cfg.Cfg.make f in
  let rdefs = Rd.compute cfg in
  let fold_operand ~at (o : Mir.Operand.t) =
    match o with
    | Mir.Operand.Imm _ -> o
    | Mir.Operand.Reg r -> (
        match const_of_reg rdefs f ~depth:0 ~at r with
        | Some n -> Mir.Operand.imm n
        | None -> o)
  in
  let rewrite_op iid (op : Mir.Op.t) =
    let at = iid in
    match op with
    | Mir.Op.Move (r, o) -> (
        match fold_operand ~at o with
        | Mir.Operand.Imm n -> Mir.Op.Const (r, n)
        | Mir.Operand.Reg _ as o' -> Mir.Op.Move (r, o'))
    | Mir.Op.Binop (r, bop, a, b) -> (
        match fold_operand ~at a, fold_operand ~at b with
        | Mir.Operand.Imm x, Mir.Operand.Imm y ->
            Mir.Op.Const (r, Mir.Binop.eval bop x y)
        | a', b' -> Mir.Op.Binop (r, bop, a', b'))
    | Mir.Op.Load (r, a) -> (
        match a with
        | Mir.Addr.Index (v, o) -> Mir.Op.Load (r, Mir.Addr.Index (v, fold_operand ~at o))
        | Mir.Addr.Direct _ | Mir.Addr.Indirect _ -> op)
    | Mir.Op.Store (a, o) ->
        let a =
          match a with
          | Mir.Addr.Index (v, i) -> Mir.Addr.Index (v, fold_operand ~at i)
          | Mir.Addr.Direct _ | Mir.Addr.Indirect _ -> a
        in
        Mir.Op.Store (a, fold_operand ~at o)
    | Mir.Op.Addr_of (r, v, o) -> Mir.Op.Addr_of (r, v, fold_operand ~at o)
    | Mir.Op.Call { dst; callee; args } ->
        Mir.Op.Call { dst; callee; args = List.map (fold_operand ~at) args }
    | Mir.Op.Output o -> Mir.Op.Output (fold_operand ~at o)
    | Mir.Op.Const _ | Mir.Op.Input _ | Mir.Op.Nop -> op
  in
  let body_of b =
    Array.to_list f.Mir.Func.blocks.(b).Mir.Block.body
    |> List.map (fun (i : Mir.Instr.t) -> rewrite_op i.iid i.op)
  in
  let term_of b =
    let blk = f.Mir.Func.blocks.(b) in
    match blk.Mir.Block.term with
    | Mir.Terminator.Branch { cmp; lhs; rhs; if_true; if_false } -> (
        let at = blk.Mir.Block.term_iid in
        let lhs_c = const_of_reg rdefs f ~depth:0 ~at lhs in
        let rhs' = fold_operand ~at rhs in
        match lhs_c, rhs' with
        | Some x, Mir.Operand.Imm y ->
            Mir.Terminator.Jump (if Mir.Cmp.eval cmp x y then if_true else if_false)
        | _, _ -> Mir.Terminator.Branch { cmp; lhs; rhs = rhs'; if_true; if_false })
    | Mir.Terminator.Return o ->
        Mir.Terminator.Return
          (Option.map (fun o -> fold_operand ~at:blk.Mir.Block.term_iid o) o)
    | (Mir.Terminator.Jump _ | Mir.Terminator.Halt) as t -> t
  in
  Rebuild.func f ~body_of ~term_of

(* ---------- copy propagation ---------- *)

(* [r] at [at] may read [s] instead when r's unique def is [r := s] and
   [s] demonstrably holds the same value at both points. *)
let copy_source rdefs (f : Mir.Func.t) ~at r =
  match Rd.unique_def rdefs ~iid:at r with
  | None | Some Rd.Entry -> None
  | Some (Rd.At d) -> (
      match Mir.Func.op_at f d with
      | Some (Mir.Op.Move (_, Mir.Operand.Reg s)) ->
          let same =
            match Rd.unique_def rdefs ~iid:at s, Rd.unique_def rdefs ~iid:d s with
            | Some a, Some b -> a = b
            | (Some _ | None), (Some _ | None) -> false
          in
          if same then Some s else None
      | Some _ | None -> None)

let copy_prop_func (f : Mir.Func.t) =
  let cfg = Ipds_cfg.Cfg.make f in
  let rdefs = Rd.compute cfg in
  let subst_reg ~at r =
    match copy_source rdefs f ~at r with
    | Some s -> s
    | None -> r
  in
  let subst_operand ~at (o : Mir.Operand.t) =
    match o with
    | Mir.Operand.Imm _ -> o
    | Mir.Operand.Reg r -> Mir.Operand.reg (subst_reg ~at r)
  in
  let subst_addr ~at = function
    | Mir.Addr.Direct v -> Mir.Addr.Direct v
    | Mir.Addr.Index (v, o) -> Mir.Addr.Index (v, subst_operand ~at o)
    | Mir.Addr.Indirect r -> Mir.Addr.Indirect (subst_reg ~at r)
  in
  let rewrite_op iid (op : Mir.Op.t) =
    let at = iid in
    match op with
    | Mir.Op.Move (r, o) -> Mir.Op.Move (r, subst_operand ~at o)
    | Mir.Op.Binop (r, bop, a, b) ->
        Mir.Op.Binop (r, bop, subst_operand ~at a, subst_operand ~at b)
    | Mir.Op.Load (r, a) -> Mir.Op.Load (r, subst_addr ~at a)
    | Mir.Op.Store (a, o) -> Mir.Op.Store (subst_addr ~at a, subst_operand ~at o)
    | Mir.Op.Addr_of (r, v, o) -> Mir.Op.Addr_of (r, v, subst_operand ~at o)
    | Mir.Op.Call { dst; callee; args } ->
        Mir.Op.Call { dst; callee; args = List.map (subst_operand ~at) args }
    | Mir.Op.Output o -> Mir.Op.Output (subst_operand ~at o)
    | Mir.Op.Const _ | Mir.Op.Input _ | Mir.Op.Nop -> op
  in
  let body_of b =
    Array.to_list f.Mir.Func.blocks.(b).Mir.Block.body
    |> List.map (fun (i : Mir.Instr.t) -> rewrite_op i.iid i.op)
  in
  let term_of b =
    let blk = f.Mir.Func.blocks.(b) in
    let at = blk.Mir.Block.term_iid in
    match blk.Mir.Block.term with
    | Mir.Terminator.Branch { cmp; lhs; rhs; if_true; if_false } ->
        Mir.Terminator.Branch
          { cmp; lhs = subst_reg ~at lhs; rhs = subst_operand ~at rhs; if_true; if_false }
    | Mir.Terminator.Return o ->
        Mir.Terminator.Return (Option.map (subst_operand ~at) o)
    | (Mir.Terminator.Jump _ | Mir.Terminator.Halt) as t -> t
  in
  Rebuild.func f ~body_of ~term_of

(* ---------- dead code elimination ---------- *)

let pure (op : Mir.Op.t) =
  match op with
  | Mir.Op.Const _ | Mir.Op.Move _ | Mir.Op.Binop _ | Mir.Op.Addr_of _
  | Mir.Op.Nop ->
      true
  (* direct and indexed loads cannot fault; indirect loads can (dangling
     or non-pointer), so they are observable and must stay *)
  | Mir.Op.Load (_, (Mir.Addr.Direct _ | Mir.Addr.Index _)) -> true
  | Mir.Op.Load (_, Mir.Addr.Indirect _) -> false
  | Mir.Op.Store _ | Mir.Op.Call _ | Mir.Op.Input _ | Mir.Op.Output _ -> false

let dce_func (f : Mir.Func.t) =
  let cfg = Ipds_cfg.Cfg.make f in
  let live = Ipds_dataflow.Liveness.compute cfg in
  let keep (blk : Mir.Block.t) pos (i : Mir.Instr.t) =
    if i.op = Mir.Op.Nop then false
    else if not (pure i.op) then true
    else
      match Mir.Op.def i.op with
      | None -> true
      | Some r ->
          (* live just after this instruction = live before the next
             point of the block *)
          let next_iid =
            if pos + 1 < Array.length blk.body then blk.body.(pos + 1).Mir.Instr.iid
            else blk.term_iid
          in
          Ipds_dataflow.Liveness.live_before live ~iid:next_iid r
  in
  let body_of b =
    let blk = f.Mir.Func.blocks.(b) in
    Array.to_list blk.Mir.Block.body
    |> List.filteri (fun pos i -> keep blk pos i)
    |> List.map (fun (i : Mir.Instr.t) -> i.Mir.Instr.op)
  in
  let term_of b = f.Mir.Func.blocks.(b).Mir.Block.term in
  Rebuild.func f ~body_of ~term_of

(* ---------- redundant load elimination ---------- *)

module Cell = Ipds_alias.Cell

(* Global available-loads analysis: at each point, which registers are
   known to hold the current value of which exactly-aliased cells.  A
   must-analysis: the meet is intersection (with agreement), so [Top]
   stands for "not yet reached". *)
module Avail = struct
  type t =
    | Top
    | Map of Ipds_mir.Reg.t Cell.Map.t

  let equal a b =
    match a, b with
    | Top, Top -> true
    | Map m, Map n -> Cell.Map.equal Mir.Reg.equal m n
    | Top, Map _ | Map _, Top -> false

  let join a b =
    match a, b with
    | Top, x | x, Top -> x
    | Map m, Map n ->
        Map
          (Cell.Map.merge
             (fun _ x y ->
               match x, y with
               | Some rx, Some ry when Mir.Reg.equal rx ry -> Some rx
               | _, _ -> None)
             m n)
end

(* Kill/gen for one instruction over an availability map. *)
let avail_step access (m : Mir.Reg.t Cell.Map.t) (op : Mir.Op.t) =
  let kill_target m = function
    | Ipds_alias.Access.No_target -> m
    | Ipds_alias.Access.Exact c -> Cell.Map.remove c m
    | Ipds_alias.Access.Within vs ->
        Cell.Map.filter (fun (c : Cell.t) _ -> not (Mir.Var.Set.mem c.var vs)) m
  in
  let m =
    match op with
    | Mir.Op.Store (a, o) -> (
        let m = kill_target m (Ipds_alias.Access.addr_target access a) in
        match Ipds_alias.Access.addr_target access a, o with
        | Ipds_alias.Access.Exact c, Mir.Operand.Reg s -> Cell.Map.add c s m
        | _, _ -> m)
    | Mir.Op.Call _ -> kill_target m (Ipds_alias.Access.may_defs access op)
    | Mir.Op.Load _ | Mir.Op.Const _ | Mir.Op.Move _ | Mir.Op.Binop _
    | Mir.Op.Addr_of _ | Mir.Op.Input _ | Mir.Op.Output _ | Mir.Op.Nop ->
        m
  in
  (* a definition invalidates entries held in the defined register *)
  let m =
    match Mir.Op.def op with
    | Some r -> Cell.Map.filter (fun _ s -> not (Mir.Reg.equal s r)) m
    | None -> m
  in
  match op with
  | Mir.Op.Load (r, a) -> (
      match Ipds_alias.Access.addr_target access a with
      | Ipds_alias.Access.Exact c -> Cell.Map.add c r m
      | Ipds_alias.Access.No_target | Ipds_alias.Access.Within _ -> m)
  | Mir.Op.Const _ | Mir.Op.Move _ | Mir.Op.Binop _ | Mir.Op.Store _
  | Mir.Op.Addr_of _ | Mir.Op.Call _ | Mir.Op.Input _ | Mir.Op.Output _
  | Mir.Op.Nop ->
      m

let rle_func (prog : Mir.Program.t) points_to summaries (f : Mir.Func.t) =
  let access = Ipds_alias.Access.make prog points_to ~summaries f in
  let cfg = Ipds_cfg.Cfg.make f in
  let module Solver = Ipds_dataflow.Framework.Forward (Avail) in
  let transfer b d =
    match d with
    | Avail.Top -> Avail.Top
    | Avail.Map m ->
        Avail.Map
          (Array.fold_left
             (fun m (i : Mir.Instr.t) -> avail_step access m i.op)
             m f.Mir.Func.blocks.(b).Mir.Block.body)
  in
  let block_in, _ =
    Solver.solve
      (Ipds_cfg.Feasibility.view_of_cfg cfg)
      ~entry:(Avail.Map Cell.Map.empty) ~bottom:Avail.Top ~transfer
  in
  let body_of b =
    let start =
      match block_in.(b) with
      | Avail.Top -> Cell.Map.empty (* unreachable *)
      | Avail.Map m -> m
    in
    let m = ref start in
    Array.to_list f.Mir.Func.blocks.(b).Mir.Block.body
    |> List.map (fun (i : Mir.Instr.t) ->
           let op = i.op in
           let rewritten =
             match op with
             (* only rewrite loads that cannot fault: replacing a faulting
                indirect load with a move would change behaviour *)
             | Mir.Op.Load (r, ((Mir.Addr.Direct _ | Mir.Addr.Index _) as a)) -> (
                 match Ipds_alias.Access.addr_target access a with
                 | Ipds_alias.Access.Exact c -> (
                     match Cell.Map.find_opt c !m with
                     | Some s when not (Mir.Reg.equal s r) ->
                         Mir.Op.Move (r, Mir.Operand.reg s)
                     | Some _ | None -> op)
                 | Ipds_alias.Access.No_target | Ipds_alias.Access.Within _ -> op)
             | Mir.Op.Load (_, Mir.Addr.Indirect _) -> op
             | Mir.Op.Const _ | Mir.Op.Move _ | Mir.Op.Binop _ | Mir.Op.Store _
             | Mir.Op.Addr_of _ | Mir.Op.Call _ | Mir.Op.Input _ | Mir.Op.Output _
             | Mir.Op.Nop ->
                 op
           in
           (* availability evolves by the ORIGINAL op so the solver's
              fixpoint stays consistent *)
           m := avail_step access !m op;
           rewritten)
  in
  let term_of b = f.Mir.Func.blocks.(b).Mir.Block.term in
  Rebuild.func f ~body_of ~term_of

let redundant_load_elim (p : Mir.Program.t) =
  let points_to = Ipds_alias.Points_to.compute p in
  let summaries = Ipds_alias.Summary.compute p points_to ~mode:`Faithful in
  let q = { p with Mir.Program.funcs = List.map (rle_func p points_to summaries) p.funcs } in
  Mir.Validate.check_exn q;
  q

(* ---------- driver ---------- *)

let per_func pass (p : Mir.Program.t) =
  let q = { p with Mir.Program.funcs = List.map pass p.funcs } in
  Mir.Validate.check_exn q;
  q

let const_prop = per_func const_prop_func
let copy_prop = per_func copy_prop_func
let dce = per_func dce_func

let optimize p =
  let step p = dce (copy_prop (const_prop (redundant_load_elim p))) in
  let rec go n p = if n = 0 then p else go (n - 1) (step p) in
  go 4 p
