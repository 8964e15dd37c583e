type t = int

let make i =
  if i < 0 then invalid_arg "Reg.make: negative index";
  i

let index t = t
let equal = Int.equal
let compare = Int.compare
let hash t = t
