(** Block terminators.  Block targets are block indices within the owning
    function ([Block.t.index]). *)

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

val successors : t -> int list
val uses : t -> Reg.t list
val is_branch : t -> bool
