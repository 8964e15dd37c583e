type t =
  | Reg of Reg.t
  | Imm of int

let reg r = Reg r
let imm n = Imm n

let regs = function
  | Reg r -> [ r ]
  | Imm _ -> []
