type t =
  | Jump of int
  | Branch of {
      cmp : Cmp.t;
      lhs : Reg.t;
      rhs : Operand.t;
      if_true : int;
      if_false : int;
    }
  | Return of Operand.t option
  | Halt

let successors = function
  | Jump b -> [ b ]
  | Branch { if_true; if_false; _ } -> [ if_true; if_false ]
  | Return _ | Halt -> []

let uses = function
  | Jump _ | Halt | Return None -> []
  | Return (Some o) -> Operand.regs o
  | Branch { lhs; rhs; _ } -> lhs :: Operand.regs rhs

let is_branch = function
  | Branch _ -> true
  | Jump _ | Return _ | Halt -> false
