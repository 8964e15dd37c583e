(** Memory addressing modes.

    - [Direct v] — the single cell of scalar variable [v];
    - [Index (v, i)] — cell [i] of (array) variable [v];
    - [Indirect r] — the cell addressed by the pointer value in [r]
      (pointers are produced by [Op.Addr_of]).

    The distinction matters to the alias analysis: [Direct] accesses are
    uniquely aliased, [Index] with an immediate index is uniquely aliased to
    one cell, and the remaining modes are resolved through points-to
    information (conservatively, per the paper's multi-alias rule). *)

type t =
  | Direct of Var.t
  | Index of Var.t * Operand.t
  | Indirect of Reg.t

val regs : t -> Reg.t list
(** Registers read when computing the address. *)
