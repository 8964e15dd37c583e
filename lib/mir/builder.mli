(** Imperative construction API for MIR programs.

    A {!t} accumulates globals, extern declarations and functions; inside
    {!func}, a function builder {!fb} emits instructions into labelled
    blocks.  Instruction ids are assigned densely when the function is
    finished, and {!finish} produces an immutable {!Program.t} (validated
    with {!Validate.check_exn}). *)

type t
type fb

type label
(** A forward-declarable block label, local to one function builder. *)

val create : unit -> t
val global : t -> ?size:int -> string -> Var.t
val declare_extern : t -> string -> Extern.summary -> unit
val declare_default_externs : t -> unit
(** Declare everything in {!Extern.default_table}. *)

val func : t -> string -> nparams:int -> (fb -> Reg.t list -> unit) -> unit
(** [func t name ~nparams body] defines function [name]; [body] receives
    the builder positioned at the entry block and the parameter registers.
    Raises [Invalid_argument] on duplicate names or unterminated blocks. *)

val finish : ?main:string -> t -> Program.t
(** Defaults to ["main"].  Validates the program. *)

(** {1 Function-builder operations} *)

val local : fb -> ?size:int -> string -> Var.t
val fresh : fb -> Reg.t

val reserve_regs : fb -> int -> unit
(** Ensure the function's register count is at least [n]; used by the
    parser, which meets explicitly numbered registers. *)

val new_label : fb -> string -> label

val entry_label : fb -> label
(** The label of the implicit entry block. *)

val in_block : fb -> bool
(** Is there an open (unterminated) block to emit into? *)

val set_block : fb -> label -> unit
(** Start emitting into the (not yet started) block [label].  The previous
    block must have been terminated. *)

val emit : fb -> Op.t -> unit

(** Conveniences returning fresh result registers: *)

val const : fb -> int -> Reg.t
val binop : fb -> Binop.t -> Operand.t -> Operand.t -> Reg.t
val load : fb -> Addr.t -> Reg.t
val store : fb -> Addr.t -> Operand.t -> unit
val addr_of : fb -> Var.t -> Operand.t -> Reg.t
val call : fb -> string -> Operand.t list -> Reg.t
val call_void : fb -> string -> Operand.t list -> unit
(** Test seam: test_mir builds a call whose result is discarded. *)

val input : fb -> int -> Reg.t
val output : fb -> Operand.t -> unit

(** Terminators: *)

val jump : fb -> label -> unit
val branch : fb -> Cmp.t -> Reg.t -> Operand.t -> label -> label -> unit
val ret : fb -> Operand.t option -> unit
val halt : fb -> unit
