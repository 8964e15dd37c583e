(* Register reaching definitions as they were first written: one
   [Def_set] per register, the whole array copied at every defining
   instruction, and [before] replaying the block prefix.  Kept as the
   differential oracle that the bit-vector [Ipds_dataflow.Reaching_defs]
   is checked against in test_dataflow.  Not used by any library.

   The only edits are the [Framework] alias and the re-exported [def]
   type, so both solvers share one worklist and one [def]. *)

module Framework = Ipds_dataflow.Framework

module Mir = Ipds_mir

type def = Ipds_dataflow.Reaching_defs.def =
  | Entry
  | At of int

module Def_set = Set.Make (struct
  type t = def

  let compare = compare
end)

module Domain = struct
  type t = Def_set.t array  (* indexed by register *)

  let equal a b = Array.for_all2 Def_set.equal a b
  let join a b = Array.map2 Def_set.union a b
end

module Solver = Framework.Forward (Domain)

type t = {
  func : Mir.Func.t;
  block_in : Domain.t array;
}

let transfer_instr state (i : Mir.Instr.t) =
  match Mir.Op.def i.op with
  | None -> state
  | Some r ->
      let state = Array.copy state in
      state.(Mir.Reg.index r) <- Def_set.singleton (At i.iid);
      state

let transfer_block (f : Mir.Func.t) b state =
  Array.fold_left transfer_instr state f.blocks.(b).Mir.Block.body

let compute ?feas cfg =
  let f = Ipds_cfg.Cfg.func cfg in
  let view =
    match feas with
    | Some feas -> Ipds_cfg.Feasibility.view feas
    | None -> Ipds_cfg.Feasibility.view_of_cfg cfg
  in
  let nregs = f.Mir.Func.reg_count in
  let entry = Array.make nregs (Def_set.singleton Entry) in
  let bottom = Array.make nregs Def_set.empty in
  let block_in, _ =
    Solver.solve view ~entry ~bottom ~transfer:(fun b d -> transfer_block f b d)
  in
  { func = f; block_in }

let before t ~iid reg =
  let f = t.func in
  let blk_idx, pos =
    match Mir.Func.location f iid with
    | Mir.Func.Body (b, p) -> (b, p)
    | Mir.Func.Term b -> (b, Array.length f.blocks.(b).Mir.Block.body)
  in
  let blk = f.blocks.(blk_idx) in
  let state = ref t.block_in.(blk_idx) in
  for p = 0 to pos - 1 do
    state := transfer_instr !state blk.body.(p)
  done;
  !state.(Mir.Reg.index reg)

let unique_def t ~iid reg =
  let defs = before t ~iid reg in
  if Def_set.cardinal defs = 1 then Some (Def_set.choose defs) else None
