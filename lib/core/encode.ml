module W = Bitstream.Writer
module R = Bitstream.Reader

let rec ceil_log2 n = if n <= 1 then 0 else 1 + ceil_log2 ((n + 1) / 2)

let action_code = function
  | Ipds_correlation.Action.Set_taken -> 1
  | Ipds_correlation.Action.Set_not_taken -> 2
  | Ipds_correlation.Action.Set_unknown -> 3

let action_of_code = function
  | 1 -> Ipds_correlation.Action.Set_taken
  | 2 -> Ipds_correlation.Action.Set_not_taken
  | 3 -> Ipds_correlation.Action.Set_unknown
  | c -> invalid_arg (Printf.sprintf "Encode: bad action code %d" c)

(* Rows in image order: the 2*space BAT edge rows, then the entry row. *)
let rows (t : Tables.t) = Array.to_list t.bat @ [ t.entry_row ]

(* Linearize the rows into a node pool: per node
   (target_slot, action, next index; 0 = null), heads point at the first
   node of each row. *)
let pool (t : Tables.t) =
  let nodes = ref [] in
  let count = ref 0 in
  let heads =
    List.map
      (fun row ->
        match row with
        | [] -> 0
        | entries ->
            let head = !count + 1 in
            let n = List.length entries in
            List.iteri
              (fun i (e : Tables.bat_entry) ->
                incr count;
                let next = if i = n - 1 then 0 else !count + 1 in
                nodes := (e.Tables.target_slot, e.Tables.action, next) :: !nodes)
              entries;
            head)
      (rows t)
  in
  (heads, List.rev !nodes)

let widths (t : Tables.t) =
  let _, nodes = pool t in
  let n_nodes = List.length nodes in
  let ptr_bits = max 1 (ceil_log2 (n_nodes + 1)) in
  let slot_bits = max 1 t.hash.Hash.space_bits in
  (ptr_bits, slot_bits, n_nodes)

let payload_bits t =
  let space = Hash.space t.Tables.hash in
  let ptr_bits, slot_bits, n_nodes = widths t in
  space + (((2 * space) + 1) * ptr_bits) + (n_nodes * (slot_bits + 2 + ptr_bits))

let write_function w ~entry_pc (t : Tables.t) =
  let name = t.fname in
  W.push w ~width:16 (String.length name);
  W.push_string w name;
  W.push w ~width:32 entry_pc;
  W.push w ~width:8 t.hash.Hash.shift1;
  W.push w ~width:8 t.hash.Hash.shift2;
  W.push w ~width:8 t.hash.Hash.space_bits;
  W.push w ~width:16 t.n_branches;
  let heads, nodes = pool t in
  let ptr_bits, slot_bits, n_nodes = widths t in
  W.push w ~width:16 n_nodes;
  (* packed payload *)
  Array.iter (fun b -> W.push w ~width:1 (if b then 1 else 0)) t.bcv;
  List.iter (fun h -> W.push w ~width:ptr_bits h) heads;
  List.iter
    (fun (slot, action, next) ->
      W.push w ~width:slot_bits slot;
      W.push w ~width:2 (action_code action);
      W.push w ~width:ptr_bits next)
    nodes

(* Decode straight into the flat {!Image.t}: one pass pulls the header
   and node pool into flat int arrays, then each linked row is chased
   once into the CSR arrays.  The list-view [Tables.t] is derived from
   the image (load-time only); no per-query bit-pulling remains. *)
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
  let ptr_bits = max 1 (ceil_log2 (n_nodes + 1)) in
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

let decode_function bytes =
  let entry_pc, image = decode_image bytes ~pos:0 ~len:(Bytes.length bytes) in
  (entry_pc, Image.to_tables image, image)
