module Mir = Ipds_mir

type t = {
  func : Mir.Func.t;
  succs : int list array;
  preds : int list array;
  rpo : int array;
  reachable : bool array;
}

let compute_rpo func succs =
  let n = Array.length func.Mir.Func.blocks in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter dfs succs.(b);
      order := b :: !order
    end
  in
  dfs 0;
  (Array.of_list !order, visited)

let make func =
  let n = Array.length func.Mir.Func.blocks in
  let succs =
    Array.init n (fun b -> Mir.Block.successors func.Mir.Func.blocks.(b))
  in
  let preds = Array.make n [] in
  Array.iteri
    (fun b ss -> List.iter (fun s -> preds.(s) <- b :: preds.(s)) ss)
    succs;
  let rpo, reachable = compute_rpo func succs in
  { func; succs; preds; rpo; reachable }

let func t = t.func
let n_blocks t = Array.length t.succs
let succs t b = t.succs.(b)
let preds t b = t.preds.(b)
let reverse_postorder t = t.rpo
let reachable t = t.reachable
