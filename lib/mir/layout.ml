type entry = {
  e_name : string;
  e_base : int;
  e_count : int;
}

type t = {
  entries : entry list;
  total : int;
}

let instr_bytes = 4
let base_address = 0x1000
let align n a = (n + a - 1) / a * a

let make (p : Program.t) =
  let next = ref base_address in
  let entries =
    List.map
      (fun (f : Func.t) ->
        let e_base = align !next 64 in
        next := e_base + (f.instr_count * instr_bytes);
        { e_name = f.name; e_base; e_count = f.instr_count })
      p.funcs
  in
  { entries; total = !next - base_address }

let find t fname =
  match List.find_opt (fun e -> String.equal e.e_name fname) t.entries with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Layout: unknown function %s" fname)

let pc t ~fname ~iid =
  let e = find t fname in
  if iid < 0 || iid >= e.e_count then
    invalid_arg (Printf.sprintf "Layout.pc: iid %d out of range for %s" iid fname);
  e.e_base + (iid * instr_bytes)

let func_base t fname = (find t fname).e_base

let func_of_pc t address =
  List.find_map
    (fun e ->
      if address >= e.e_base && address < e.e_base + (e.e_count * instr_bytes) then
        Some (e.e_name, (address - e.e_base) / instr_bytes)
      else None)
    t.entries

let entries t = List.map (fun e -> (e.e_name, e.e_base, e.e_count)) t.entries

let branch_pcs t (f : Func.t) =
  List.map (fun (iid, _) -> pc t ~fname:f.Func.name ~iid) (Func.branches f)
