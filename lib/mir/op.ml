type t =
  | Const of Reg.t * int
  | Move of Reg.t * Operand.t
  | Binop of Reg.t * Binop.t * Operand.t * Operand.t
  | Load of Reg.t * Addr.t
  | Store of Addr.t * Operand.t
  | Addr_of of Reg.t * Var.t * Operand.t
  | Call of { dst : Reg.t option; callee : string; args : Operand.t list }
  | Input of Reg.t * int
  | Output of Operand.t
  | Nop

let def = function
  | Const (r, _)
  | Move (r, _)
  | Binop (r, _, _, _)
  | Load (r, _)
  | Addr_of (r, _, _)
  | Input (r, _) ->
      Some r
  | Call { dst; _ } -> dst
  | Store _ | Output _ | Nop -> None

let uses = function
  | Const _ | Input _ | Nop -> []
  | Move (_, o) | Output o -> Operand.regs o
  | Binop (_, _, a, b) -> Operand.regs a @ Operand.regs b
  | Load (_, a) -> Addr.regs a
  | Store (a, o) -> Addr.regs a @ Operand.regs o
  | Addr_of (_, _, i) -> Operand.regs i
  | Call { args; _ } -> List.concat_map Operand.regs args
