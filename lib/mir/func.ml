type location =
  | Body of int * int
  | Term of int

type t = {
  name : string;
  params : Reg.t list;
  locals : Var.t list;
  blocks : Block.t array;
  reg_count : int;
  instr_count : int;
}

let entry t = t.blocks.(0)

(* Ids run block by block, body first and terminator last, so block [b]
   covers [b.term_iid - |b.body|, b.term_iid]: binary-search the blocks
   by [term_iid].  [Validate] rejects any other numbering. *)
let location t iid =
  if iid < 0 || iid >= t.instr_count then raise Not_found;
  let blocks = t.blocks in
  let lo = ref 0 and hi = ref (Array.length blocks) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if blocks.(mid).Block.term_iid < iid then lo := mid + 1 else hi := mid
  done;
  if !lo = Array.length blocks then raise Not_found;
  let b = blocks.(!lo) in
  if b.term_iid = iid then Term b.index
  else
    let pos = iid - b.term_iid + Array.length b.body in
    if pos >= 0 && b.body.(pos).Instr.iid = iid then Body (b.index, pos)
    else raise Not_found

let op_at t iid =
  match location t iid with
  | Body (b, pos) -> Some t.blocks.(b).body.(pos).op
  | Term _ -> None

let branches t =
  Array.to_list t.blocks
  |> List.filter_map (fun (b : Block.t) ->
         if Terminator.is_branch b.term then Some (b.term_iid, b) else None)

let iter_instrs t f =
  Array.iter
    (fun (b : Block.t) -> Array.iter (fun (i : Instr.t) -> f i.iid i.op) b.body)
    t.blocks

let label_of_block t idx = t.blocks.(idx).label
