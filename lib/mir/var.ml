type storage =
  | Local
  | Global

type t = {
  id : int;
  name : string;
  size : int;
  storage : storage;
}

let make ~id ~name ~size ~storage =
  if size < 1 then invalid_arg "Var.make: size must be >= 1";
  if id < 0 then invalid_arg "Var.make: negative id";
  { id; name; size; storage }

let is_scalar t = t.size = 1
let equal a b = Int.equal a.id b.id
let compare a b = Int.compare a.id b.id
let hash t = t.id

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
