(** Instruction operands: a register or an immediate constant. *)

type t =
  | Reg of Reg.t
  | Imm of int

val reg : Reg.t -> t
val imm : int -> t

val regs : t -> Reg.t list
(** Registers read by the operand ([[]] for immediates). *)
