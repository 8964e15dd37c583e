module Mir = Ipds_mir

type stop =
  | Next_branch of int
  | Exits
  | Loops_forever

type t = {
  instrs : int list;
  stop : stop;
}

let walk (f : Mir.Func.t) start_block =
  let visited = Hashtbl.create 8 in
  let rec go acc b =
    if Hashtbl.mem visited b then { instrs = List.rev acc; stop = Loops_forever }
    else begin
      Hashtbl.add visited b ();
      let blk = f.blocks.(b) in
      let acc =
        Array.fold_left (fun acc (i : Mir.Instr.t) -> i.iid :: acc) acc blk.Mir.Block.body
      in
      match blk.term with
      | Mir.Terminator.Branch _ ->
          { instrs = List.rev acc; stop = Next_branch blk.term_iid }
      | Mir.Terminator.Jump b' -> go acc b'
      | Mir.Terminator.Return _ | Mir.Terminator.Halt ->
          { instrs = List.rev acc; stop = Exits }
    end
  in
  go [] start_block

let after_edge (f : Mir.Func.t) ~branch_iid ~taken =
  let blk =
    match Mir.Func.location f branch_iid with
    | Mir.Func.Term b -> f.blocks.(b)
    | Mir.Func.Body _ | (exception Not_found) ->
        invalid_arg "Region.after_edge: not a terminator iid"
  in
  match blk.term with
  | Mir.Terminator.Branch { if_true; if_false; _ } ->
      walk f (if taken then if_true else if_false)
  | Mir.Terminator.Jump _ | Mir.Terminator.Return _ | Mir.Terminator.Halt ->
      invalid_arg "Region.after_edge: not a conditional branch"

let from_entry (f : Mir.Func.t) = walk f 0

let all_edges (f : Mir.Func.t) =
  List.concat_map
    (fun (branch_iid, _) ->
      [
        ((branch_iid, true), after_edge f ~branch_iid ~taken:true);
        ((branch_iid, false), after_edge f ~branch_iid ~taken:false);
      ])
    (Mir.Func.branches f)
