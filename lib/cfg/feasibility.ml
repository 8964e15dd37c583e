module Mir = Ipds_mir

type view = {
  v_blocks : int;
  v_succs : int -> int list;
  v_preds : int -> int list;
  v_rpo : int array;
  v_reachable : bool array;
}

type t = {
  cfg : Cfg.t;
  pruned : bool array;  (* iid * 2 + dir; dir 1 = taken *)
  n_pruned : int;
  succs : int list array;
  preds : int list array;
  rpo : int array;
  reachable : bool array;
}

let slot iid taken = (iid * 2) + if taken then 1 else 0

let branch_term f b =
  match f.Mir.Func.blocks.(b).Mir.Block.term with
  | Mir.Terminator.Branch { if_true; if_false; _ } ->
      Some (f.Mir.Func.blocks.(b).Mir.Block.term_iid, if_true, if_false)
  | Mir.Terminator.Jump _ | Mir.Terminator.Return _ | Mir.Terminator.Halt ->
      None

(* Same DFS as [Cfg.compute_rpo], over the filtered successor arrays. *)
let compute_rpo n succs =
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

(* Rebuild the filtered graph: per block, keep each branch direction
   individually (so [if_true = if_false] edges survive as long as either
   direction does), preserving the raw successor order. *)
let rebuild cfg pruned n_pruned =
  let f = Cfg.func cfg in
  let nb = Cfg.n_blocks cfg in
  let succs =
    Array.init nb (fun b ->
        match branch_term f b with
        | Some (iid, if_true, if_false) ->
            (if pruned.(slot iid true) then [] else [ if_true ])
            @ if pruned.(slot iid false) then [] else [ if_false ]
        | None -> Cfg.succs cfg b)
  in
  let preds = Array.make nb [] in
  Array.iteri
    (fun b ss -> List.iter (fun s -> preds.(s) <- b :: preds.(s)) ss)
    succs;
  let rpo, reachable = compute_rpo nb succs in
  { cfg; pruned; n_pruned; succs; preds; rpo; reachable }

let full cfg =
  let f = Cfg.func cfg in
  let pruned = Array.make (2 * f.Mir.Func.instr_count) false in
  (* Nothing pruned: share the raw CFG's structure verbatim. *)
  {
    cfg;
    pruned;
    n_pruned = 0;
    succs = Array.init (Cfg.n_blocks cfg) (Cfg.succs cfg);
    preds = Array.init (Cfg.n_blocks cfg) (Cfg.preds cfg);
    rpo = Cfg.reverse_postorder cfg;
    reachable = Cfg.reachable cfg;
  }

let is_branch_iid t iid =
  let f = Cfg.func t.cfg in
  iid >= 0
  && iid < f.Mir.Func.instr_count
  &&
  match Mir.Func.location f iid with
  | Mir.Func.Term b -> (
      match f.Mir.Func.blocks.(b).Mir.Block.term with
      | Mir.Terminator.Branch _ -> true
      | Mir.Terminator.Jump _ | Mir.Terminator.Return _ | Mir.Terminator.Halt
        ->
          false)
  | Mir.Func.Body _ -> false

let prune t dirs =
  let fresh =
    List.filter
      (fun (iid, taken) ->
        if not (is_branch_iid t iid) then
          invalid_arg
            (Printf.sprintf "Feasibility.prune: iid %d is not a branch" iid)
        else not t.pruned.(slot iid taken))
      dirs
  in
  match fresh with
  | [] -> t
  | _ :: _ ->
      let pruned = Array.copy t.pruned in
      let added = ref 0 in
      List.iter
        (fun (iid, taken) ->
          if not pruned.(slot iid taken) then begin
            pruned.(slot iid taken) <- true;
            incr added
          end)
        fresh;
      rebuild t.cfg pruned (t.n_pruned + !added)

let is_pruned t iid taken =
  let s = slot iid taken in
  s >= 0 && s < Array.length t.pruned && t.pruned.(s)

let pruned_count t = t.n_pruned

let pruned_directions t =
  let out = ref [] in
  for iid = (Array.length t.pruned / 2) - 1 downto 0 do
    if t.pruned.(slot iid false) then out := (iid, false) :: !out;
    if t.pruned.(slot iid true) then out := (iid, true) :: !out
  done;
  (* slot order within an iid is [false; true]; normalise to (iid, dir)
     with false < true, which List.sort on the pair gives anyway *)
  List.sort compare !out

let total_directions t =
  2 * List.length (Mir.Func.branches (Cfg.func t.cfg))

let branch_ok t iid taken = not (is_pruned t iid taken)

let view t =
  {
    v_blocks = Array.length t.succs;
    v_succs = (fun b -> t.succs.(b));
    v_preds = (fun b -> t.preds.(b));
    v_rpo = t.rpo;
    v_reachable = t.reachable;
  }

let view_of_cfg cfg =
  {
    v_blocks = Cfg.n_blocks cfg;
    v_succs = Cfg.succs cfg;
    v_preds = Cfg.preds cfg;
    v_rpo = Cfg.reverse_postorder cfg;
    v_reachable = Cfg.reachable cfg;
  }

(* ---------- invariants ---------- *)

let subset_multiset xs ys =
  (* xs ⊆ ys as multisets of ints *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun y ->
      Hashtbl.replace tbl y (1 + Option.value ~default:0 (Hashtbl.find_opt tbl y)))
    ys;
  List.for_all
    (fun x ->
      match Hashtbl.find_opt tbl x with
      | Some n when n > 0 ->
          Hashtbl.replace tbl x (n - 1);
          true
      | Some _ | None -> false)
    xs

let invariant_subview t =
  let nb = Cfg.n_blocks t.cfg in
  let ok = ref (Array.length t.succs = nb) in
  for b = 0 to nb - 1 do
    if !ok then ok := subset_multiset t.succs.(b) (Cfg.succs t.cfg b)
  done;
  !ok

let invariant_entry_preserved t =
  Array.length t.rpo > 0
  && t.rpo.(0) = 0
  && t.reachable.(0)
  && Array.for_all (fun b -> t.reachable.(b)) t.rpo

let invariant_monotone ~earlier ~later =
  earlier.cfg == later.cfg
  && Array.length earlier.pruned = Array.length later.pruned
  && earlier.n_pruned <= later.n_pruned
  && Array.for_all2
       (fun e l -> (not e) || l)
       earlier.pruned later.pruned
