type t =
  | Direct of Var.t
  | Index of Var.t * Operand.t
  | Indirect of Reg.t

let regs = function
  | Direct _ -> []
  | Index (_, i) -> Operand.regs i
  | Indirect r -> [ r ]
