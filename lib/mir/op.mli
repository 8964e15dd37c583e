(** Instruction payloads (everything except control transfers). *)

type t =
  | Const of Reg.t * int  (** [r := n] *)
  | Move of Reg.t * Operand.t  (** [r := o] *)
  | Binop of Reg.t * Binop.t * Operand.t * Operand.t  (** [r := a op b] *)
  | Load of Reg.t * Addr.t  (** [r := mem\[a\]] *)
  | Store of Addr.t * Operand.t  (** [mem\[a\] := o] *)
  | Addr_of of Reg.t * Var.t * Operand.t  (** [r := &v\[i\]] *)
  | Call of { dst : Reg.t option; callee : string; args : Operand.t list }
  | Input of Reg.t * int  (** [r := next value on input channel n] *)
  | Output of Operand.t  (** append [o] to the observable output *)
  | Nop

val def : t -> Reg.t option
(** The register defined by the instruction, if any. *)

val uses : t -> Reg.t list
(** Registers read by the instruction. *)
