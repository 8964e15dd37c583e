module W = Bitstream.Writer
module R = Bitstream.Reader

(* Wire action codes (1=T, 2=NT, 3=unknown); the image's status codes
   are (1, 2, 0). *)
let wire_code status = if status = 0 then 3 else status

let action_of_code = function
  | 1 -> Ipds_correlation.Action.Set_taken
  | 2 -> Ipds_correlation.Action.Set_not_taken
  | 3 -> Ipds_correlation.Action.Set_unknown
  | c -> invalid_arg (Printf.sprintf "Encode: bad action code %d" c)

let payload_bits t =
  let s = Image.sizes t in
  s.Image.bcv_bits + s.Image.bat_bits

(* The CSR rows as the paper's linked lists: node [i] of the image is
   pool node [i + 1] (0 = null), a row's head points at its first node
   and each node at the next one in its row. *)
let write_function w ~entry_pc (t : Image.t) =
  let name = t.Image.fname in
  W.push w ~width:16 (String.length name);
  W.push_string w name;
  W.push w ~width:32 entry_pc;
  W.push w ~width:8 t.Image.shift1;
  W.push w ~width:8 t.Image.shift2;
  W.push w ~width:8 t.Image.space_bits;
  W.push w ~width:16 t.Image.n_branches;
  let n_nodes = Array.length t.Image.nodes in
  let ptr_bits = Image.ptr_bits ~n_nodes in
  let slot_bits = max 1 t.Image.space_bits in
  W.push w ~width:16 n_nodes;
  (* packed payload *)
  for slot = 0 to t.Image.space - 1 do
    W.push w ~width:1 (Bool.to_int (Image.checked t slot))
  done;
  Array.iter
    (fun rw ->
      W.push w ~width:ptr_bits
        (if Image.row_len rw = 0 then 0 else Image.row_off rw + 1))
    t.Image.rows;
  Array.iter
    (fun rw ->
      let off = Image.row_off rw and len = Image.row_len rw in
      for i = off to off + len - 1 do
        let node = t.Image.nodes.(i) in
        W.push w ~width:slot_bits (Image.node_slot node);
        W.push w ~width:2 (wire_code (Image.node_code node));
        W.push w ~width:ptr_bits (if i = off + len - 1 then 0 else i + 2)
      done)
    t.Image.rows

(* Decode straight into the flat {!Image.t}: one pass pulls the header
   and node pool into flat int arrays, then each linked row is chased
   once into the CSR arrays; no per-query bit-pulling remains. *)
let read_function r =
  let name_len = R.pull r ~width:16 in
  let name = R.pull_string r name_len in
  let entry_pc = R.pull r ~width:32 in
  let shift1 = R.pull r ~width:8 in
  let shift2 = R.pull r ~width:8 in
  let space_bits = R.pull r ~width:8 in
  let n_branches = R.pull r ~width:16 in
  let n_nodes = R.pull r ~width:16 in
  let hash = Hash.make ~shift1 ~shift2 ~space_bits in
  let space = Hash.space hash in
  let ptr_bits = Image.ptr_bits ~n_nodes in
  let slot_bits = max 1 space_bits in
  let bcv = Array.make (max 1 ((space + 31) lsr 5)) 0 in
  for slot = 0 to space - 1 do
    if R.pull r ~width:1 = 1 then
      bcv.(slot lsr 5) <- bcv.(slot lsr 5) lor (1 lsl (slot land 31))
  done;
  let heads = Array.init ((2 * space) + 1) (fun _ -> R.pull r ~width:ptr_bits) in
  let node_slot = Array.make n_nodes 0 in
  let node_code = Array.make n_nodes 0 in
  let node_next = Array.make n_nodes 0 in
  for i = 0 to n_nodes - 1 do
    node_slot.(i) <- R.pull r ~width:slot_bits;
    (* wire action code (1=T, 2=NT, 3=unknown) → status code (1,2,0);
       validate through the action decoder so a 0 code still rejects *)
    node_code.(i) <- Status.to_code (Status.of_action (action_of_code (R.pull r ~width:2)));
    node_next.(i) <- R.pull r ~width:ptr_bits
  done;
  let row_off = Array.make ((2 * space) + 2) 0 in
  let nodes = Array.make n_nodes 0 in
  let pos = ref 0 in
  Array.iteri
    (fun rowi head ->
      row_off.(rowi) <- !pos;
      let idx = ref head in
      let steps = ref 0 in
      while !idx <> 0 do
        if !idx > n_nodes then invalid_arg "Encode: dangling node pointer";
        incr steps;
        if !steps > n_nodes || !pos >= n_nodes then
          invalid_arg "Encode: node pool overcommitted";
        let i = !idx - 1 in
        nodes.(!pos) <- Image.node_word ~target_slot:node_slot.(i) ~code:node_code.(i);
        incr pos;
        idx := node_next.(i)
      done)
    heads;
  row_off.((2 * space) + 1) <- !pos;
  (* orphan nodes (unreachable from any head) simply shrink the pool *)
  let nodes = if !pos = n_nodes then nodes else Array.sub nodes 0 !pos in
  let image = Image.make ~fname:name ~hash ~n_branches ~bcv ~row_off ~nodes in
  (entry_pc, image)

let function_image ~entry_pc t =
  let w = W.create () in
  write_function w ~entry_pc t;
  W.contents w

let decode_image buf ~pos ~len = read_function (R.of_span buf ~pos ~len)
