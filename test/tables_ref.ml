(* The per-function tables as they were first built: BAT rows as
   [bat_entry] lists, the BCV as a [bool array], and the Figure 8 bit
   accounting walked over those lists.  Kept as the list-side oracle
   that [Ipds_core.Image.build] and [Ipds_core.Image.sizes] are checked
   against (test_core's [tables] group), and as the tables the
   reference checker [Checker_ref] runs on in test_flat.  Not used by
   any library.

   The edits are the qualified [Ipds_core] paths, [sizes] returning
   the [Ipds_core.Image.sizes] record so the two accountings compare
   directly, [equal_image], [of_system], and the removal of the debug-only
   branch-iid → slot map and [pp]. *)

module Mir = Ipds_mir
module Corr = Ipds_correlation
module Hash = Ipds_core.Hash

type bat_entry = {
  target_slot : int;
  action : Corr.Action.t;
}

type t = {
  fname : string;
  hash : Hash.params;
  n_branches : int;
  bcv : bool array;
  bat : bat_entry list array;
  entry_row : bat_entry list;
}

let build ~layout (r : Corr.Analysis.result) =
  let fname = r.func.Mir.Func.name in
  let branch_iids = List.map fst (Mir.Func.branches r.func) in
  let pc_of iid = Mir.Layout.pc layout ~fname ~iid in
  let hash = Hash.find (List.map pc_of branch_iids) in
  let slot iid = Hash.apply hash (pc_of iid) in
  let space = Hash.space hash in
  let bcv = Array.make space false in
  List.iter (fun iid -> bcv.(slot iid) <- true) r.checked;
  let bat = Array.make (2 * space) [] in
  List.iter
    (fun ((bs, dir), actions) ->
      let row = (slot bs * 2) + if dir then 1 else 0 in
      bat.(row) <-
        List.map (fun (tgt, action) -> { target_slot = slot tgt; action }) actions)
    r.edge_actions;
  let entry_row =
    List.map (fun (tgt, action) -> { target_slot = slot tgt; action }) r.entry_actions
  in
  { fname; hash; n_branches = List.length branch_iids; bcv; bat; entry_row }

let rec ceil_log2 n = if n <= 1 then 0 else 1 + ceil_log2 ((n + 1) / 2)

(* BSV: 2 bits/slot.  BCV: 1 bit/slot.  BAT: head pointers for
   [2*space + 1] rows plus nodes of (target-slot, 2-bit action, next
   pointer); pointer width is [ceil log2 (nodes + 1)]. *)
let sizes t =
  let space = Hash.space t.hash in
  let n_nodes =
    Array.fold_left (fun acc row -> acc + List.length row) (List.length t.entry_row)
      t.bat
  in
  let ptr_bits = max 1 (ceil_log2 (n_nodes + 1)) in
  let slot_bits = max 1 t.hash.Hash.space_bits in
  let head_bits = ((2 * space) + 1) * ptr_bits in
  let node_bits = n_nodes * (slot_bits + 2 + ptr_bits) in
  {
    Ipds_core.Image.bsv_bits = 2 * space;
    bcv_bits = space;
    bat_bits = head_bits + node_bits;
  }

let slot_of_pc t pc = Hash.apply t.hash pc

(* Do list tables and a flat image describe the same tables: name,
   hash, branch count, BCV, and every row's entries in order? *)
let equal_image t (img : Ipds_core.Image.t) =
  let module I = Ipds_core.Image in
  let space = Hash.space t.hash in
  let row_of i = if i < 2 * space then t.bat.(i) else t.entry_row in
  let img_row i =
    let rw = img.I.rows.(i) in
    List.init (I.row_len rw) (fun k ->
        let w = img.I.nodes.(I.row_off rw + k) in
        { target_slot = I.node_slot w; action = I.node_action w })
  in
  String.equal t.fname img.I.fname
  && t.hash = I.hash img
  && t.n_branches = img.I.n_branches
  && Array.length img.I.rows = (2 * space) + 1
  && List.for_all (fun s -> t.bcv.(s) = I.checked img s) (List.init space Fun.id)
  && List.for_all (fun i -> row_of i = img_row i) (List.init ((2 * space) + 1) Fun.id)

(* Every function of a built or loaded system, as list tables built
   independently from its analysis result. *)
let of_system (sys : Ipds_core.System.t) =
  List.map
    (fun (name, (i : Ipds_core.System.func_info)) ->
      (name, build ~layout:sys.Ipds_core.System.layout i.Ipds_core.System.result))
    sys.Ipds_core.System.funcs
