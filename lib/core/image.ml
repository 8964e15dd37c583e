(* The compiled flat per-function image: everything the checker's
   per-branch hot path touches, in unboxed int arrays.  Built once from
   the analysis result by the [tables] pass (or decoded straight from
   an artifact section); it is the only in-memory form of a function's
   tables. *)

type t = {
  fname : string;
  shift1 : int;
  shift2 : int;
  space_bits : int;
  mask : int;  (* space - 1, so the hash needs no load of Hash.params *)
  space : int;
  n_branches : int;
  bcv : int array;  (* bitset, 32 slots per word: word [slot lsr 5], bit
                       [slot land 31] *)
  rows : int array;  (* packed CSR rows, one word per row:
                        [(offset lsl 20) lor length], length
                        [2*space + 1] — so the branch hot path learns a
                        row's start and node count from a single load.
                        Row [slot*2 + dir] holds the edge actions, row
                        [2*space] the entry actions.  Rows tile [nodes]
                        contiguously in index order ({!validate}
                        enforces it), which caps a function at 2^20
                        nodes — far above any real table. *)
  nodes : int array;  (* packed action nodes:
                         [(target_slot lsl 16) lor (keep_mask lsl 8)
                          lor set_mask], where the byte masks apply the
                         2-bit status write to the slab byte
                         [target_slot lsr 2] — precomputed so the hot
                         path does a constant-shift load/and/or/store
                         with no variable shifts *)
  init_bsv : Bytes.t;  (* per-activation slab initializer: status code 0
                          (Unknown) for checked slots, 3 for unchecked
                          ones — so the branch hot path learns "checked"
                          and "expected" from one 2-bit read.  Sound
                          because every BAT node targets a checked slot
                          (the analysis filters actions to the checked
                          set), so codes 0-2 are only ever written over
                          checked slots. *)
}

let entry_row_index t = 2 * t.space
let row_word ~off ~len = (off lsl 20) lor len
let row_off w = w lsr 20
let row_len w = w land 0xfffff

let slot_of_pc t pc =
  let x = pc lsr 2 in
  let x = x lxor (x lsr t.shift1) in
  let x = x lxor ((x lsl t.shift2) land max_int) in
  x land t.mask

let checked t slot =
  Array.unsafe_get t.bcv (slot lsr 5) land (1 lsl (slot land 31)) <> 0

let node_word ~target_slot ~code =
  let shift = (target_slot land 3) * 2 in
  (target_slot lsl 16)
  lor ((0xff land lnot (3 lsl shift)) lsl 8)
  lor (code lsl shift)

let node_slot w = w lsr 16
let node_code w = (w land 0xff) lsr (((w lsr 16) land 3) * 2)

let node_action w =
  match node_code w with
  | 1 -> Ipds_correlation.Action.Set_taken
  | 2 -> Ipds_correlation.Action.Set_not_taken
  | _ -> Ipds_correlation.Action.Set_unknown

(* checked slots start Unknown (code 0), unchecked slots carry the
   never-check marker (code 3); 0xff = four unchecked slots *)
let init_bsv_of ~space bcv =
  let b = Bytes.make ((space + 3) lsr 2) '\xff' in
  for slot = 0 to space - 1 do
    if Array.get bcv (slot lsr 5) land (1 lsl (slot land 31)) <> 0 then begin
      let byte = slot lsr 2 in
      let shift = (slot land 3) * 2 in
      Bytes.set b byte
        (Char.chr (Char.code (Bytes.get b byte) land lnot (3 lsl shift)))
    end
  done;
  b

let empty =
  {
    fname = "";
    shift1 = 1;
    shift2 = 1;
    space_bits = 0;
    mask = 0;
    space = 1;
    n_branches = 0;
    bcv = [| 0 |];
    rows = Array.make 3 0;
    nodes = [||];
    init_bsv = Bytes.make 1 '\xff';
  }

(* Rows tile [nodes] in the order {!Encode} serializes them: edge rows
   by index, then the entry row. *)
let build ~layout (r : Ipds_correlation.Analysis.result) =
  let fname = r.func.Ipds_mir.Func.name in
  let branch_iids = List.map fst (Ipds_mir.Func.branches r.func) in
  let pc_of iid = Ipds_mir.Layout.pc layout ~fname ~iid in
  let hash = Hash.find (List.map pc_of branch_iids) in
  let slot iid = Hash.apply hash (pc_of iid) in
  let space = Hash.space hash in
  let bcv = Array.make (max 1 ((space + 31) lsr 5)) 0 in
  List.iter
    (fun iid ->
      let s = slot iid in
      bcv.(s lsr 5) <- bcv.(s lsr 5) lor (1 lsl (s land 31)))
    r.checked;
  let row_actions = Array.make ((2 * space) + 1) [] in
  List.iter
    (fun ((bs, dir), actions) ->
      row_actions.((slot bs * 2) + Bool.to_int dir) <- actions)
    r.edge_actions;
  row_actions.(2 * space) <- r.entry_actions;
  let n_nodes = Array.fold_left (fun n row -> n + List.length row) 0 row_actions in
  let rows = Array.make ((2 * space) + 1) 0 in
  let nodes = Array.make n_nodes 0 in
  let pos = ref 0 in
  Array.iteri
    (fun i row ->
      let off = !pos in
      List.iter
        (fun (tgt, action) ->
          nodes.(!pos) <-
            node_word ~target_slot:(slot tgt)
              ~code:(Status.to_code (Status.of_action action));
          incr pos)
        row;
      rows.(i) <- row_word ~off ~len:(!pos - off))
    row_actions;
  {
    fname;
    shift1 = hash.Hash.shift1;
    shift2 = hash.Hash.shift2;
    space_bits = hash.Hash.space_bits;
    mask = space - 1;
    space;
    n_branches = List.length branch_iids;
    bcv;
    rows;
    nodes;
    init_bsv = init_bsv_of ~space bcv;
  }

let hash t = Hash.make ~shift1:t.shift1 ~shift2:t.shift2 ~space_bits:t.space_bits

type sizes = {
  bsv_bits : int;
  bcv_bits : int;
  bat_bits : int;
}

let ptr_bits ~n_nodes = max 1 (Hash.ceil_log2 (n_nodes + 1))

(* The serialized linked-list BAT (paper Fig. 8): a head pointer per
   row plus (target slot, 2-bit action, next pointer) per node. *)
let sizes t =
  let n_nodes = Array.length t.nodes in
  let ptr_bits = ptr_bits ~n_nodes in
  let slot_bits = max 1 t.space_bits in
  let head_bits = ((2 * t.space) + 1) * ptr_bits in
  let node_bits = n_nodes * (slot_bits + 2 + ptr_bits) in
  { bsv_bits = 2 * t.space; bcv_bits = t.space; bat_bits = head_bits + node_bits }

let pp ppf t =
  Format.fprintf ppf "@[<v>tables %s: %d branches, %a@," t.fname t.n_branches
    Hash.pp (hash t);
  let s = sizes t in
  Format.fprintf ppf "  bsv %d bits, bcv %d bits, bat %d bits@]" s.bsv_bits
    s.bcv_bits s.bat_bits

(* Structural sanity for images decoded from untrusted bytes: the rows
   tile [nodes] exactly in index order, every node's target slot is
   inside the hash space and marked in the BCV (the invariant the slab
   encoding relies on).  Raises [Invalid_argument]. *)
let validate t =
  if t.space <> 1 lsl t.space_bits || t.mask <> t.space - 1 then
    invalid_arg "Image: inconsistent hash space";
  if Array.length t.rows <> (2 * t.space) + 1 then
    invalid_arg "Image: bad row table length";
  if Array.length t.bcv < (t.space + 31) lsr 5 then
    invalid_arg "Image: BCV bitset too short";
  let n = Array.length t.nodes in
  if n > 0xfffff then invalid_arg "Image: node array too large";
  let pos = ref 0 in
  Array.iter
    (fun rw ->
      if row_off rw <> !pos then
        invalid_arg "Image: rows do not tile the node array";
      pos := !pos + row_len rw)
    t.rows;
  if !pos <> n then invalid_arg "Image: rows do not cover the node array";
  Array.iter
    (fun w ->
      if node_slot w >= t.space then
        invalid_arg "Image: node target slot outside hash space";
      if not (checked t (node_slot w)) then
        invalid_arg "Image: node targets an unchecked slot";
      if node_word ~target_slot:(node_slot w) ~code:(node_code w) <> w then
        invalid_arg "Image: malformed node masks")
    t.nodes;
  if Bytes.length t.init_bsv <> (t.space + 3) lsr 2 then
    invalid_arg "Image: slab initializer length mismatch"

(* [row_off] is the classic CSR offset table (length [2*space + 2],
   final entry the sentinel) — the form the artifact serializes — and is
   packed into per-row words here. *)
let make ~fname ~(hash : Hash.params) ~n_branches ~bcv ~row_off ~nodes =
  let space = Hash.space hash in
  if Array.length row_off <> (2 * space) + 2 then
    invalid_arg "Image: bad row-offset table length";
  let rows =
    Array.init
      ((2 * space) + 1)
      (fun i ->
        let off = row_off.(i) and next = row_off.(i + 1) in
        if off < 0 || next < off then
          invalid_arg "Image: row offsets not monotone";
        row_word ~off ~len:(next - off))
  in
  let t =
    {
      fname;
      shift1 = hash.Hash.shift1;
      shift2 = hash.Hash.shift2;
      space_bits = hash.Hash.space_bits;
      mask = space - 1;
      space;
      n_branches;
      bcv;
      rows;
      nodes;
      init_bsv = init_bsv_of ~space bcv;
    }
  in
  validate t;
  t
