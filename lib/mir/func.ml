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

let location t iid =
  if iid < 0 || iid >= t.instr_count then raise Not_found;
  let found = ref None in
  Array.iter
    (fun (b : Block.t) ->
      if !found = None then
        if b.term_iid = iid then found := Some (Term b.index)
        else
          Array.iteri
            (fun pos (i : Instr.t) ->
              if i.iid = iid then found := Some (Body (b.index, pos)))
            b.body)
    t.blocks;
  match !found with
  | Some loc -> loc
  | None -> raise Not_found

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
