module Mir = Ipds_mir
module Int_set = Set.Make (Int)

type t = {
  vars : Mir.Var.Set.t;
  params : Int_set.t;
  unknown : bool;
}

let empty = { vars = Mir.Var.Set.empty; params = Int_set.empty; unknown = false }
let unknown = { empty with unknown = true }
let of_var v = { empty with vars = Mir.Var.Set.singleton v }
let of_param i = { empty with params = Int_set.singleton i }

let union a b =
  {
    vars = Mir.Var.Set.union a.vars b.vars;
    params = Int_set.union a.params b.params;
    unknown = a.unknown || b.unknown;
  }

let equal a b =
  Mir.Var.Set.equal a.vars b.vars
  && Int_set.equal a.params b.params
  && Bool.equal a.unknown b.unknown

let is_empty t =
  Mir.Var.Set.is_empty t.vars && Int_set.is_empty t.params && not t.unknown

let subsumes_anything t = t.unknown || not (Int_set.is_empty t.params)

(* Appends the id of every element [iter] visits, comma-separated. *)
let add_ids buf iter id set =
  let sep = ref false in
  iter
    (fun x ->
      if !sep then Buffer.add_char buf ',';
      sep := true;
      Buffer.add_string buf (string_of_int (id x)))
    set

let add_ints buf set = add_ids buf Int_set.iter Fun.id set
let add_var_ids buf set = add_ids buf Mir.Var.Set.iter (fun (v : Mir.Var.t) -> v.id) set

(* Canonical rendering for content digests: variable ids (program-wide
   unique) rather than names, so renamings that change binding structure
   cannot collide. *)
let render buf t =
  Buffer.add_string buf "v[";
  add_var_ids buf t.vars;
  Buffer.add_string buf "]p[";
  add_ints buf t.params;
  Buffer.add_char buf ']';
  Buffer.add_char buf (if t.unknown then '?' else '.')

let pp ppf t =
  let items =
    List.map (fun v -> v.Mir.Var.name) (Mir.Var.Set.elements t.vars)
    @ List.map (Printf.sprintf "param%d") (Int_set.elements t.params)
    @ (if t.unknown then [ "?" ] else [])
  in
  Format.fprintf ppf "{%s}" (String.concat ", " items)
