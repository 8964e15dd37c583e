type t =
  | Reg of Reg.t
  | Imm of int

let reg r = Reg r
let imm n = Imm n

let equal a b =
  match a, b with
  | Reg r1, Reg r2 -> Reg.equal r1 r2
  | Imm n1, Imm n2 -> Int.equal n1 n2
  | Reg _, Imm _ | Imm _, Reg _ -> false

let regs = function
  | Reg r -> [ r ]
  | Imm _ -> []
