(** Synthetic code layout: maps every instruction (and terminator) to a PC.

    Functions are laid out in program order starting at PC 0x1000,
    one 4-byte slot per instruction id, each function aligned to 64 bytes.
    Branch PCs are the keys hashed into the BSV/BCV/BAT tables, exactly as
    the paper indexes its per-function hash tables by branch address. *)

type t

val instr_bytes : int
(** 4 — bytes per instruction slot. *)

val make : Program.t -> t
val pc : t -> fname:string -> iid:int -> int
(** Raises [Invalid_argument] for unknown functions or out-of-range ids. *)

val func_base : t -> string -> int
val func_of_pc : t -> int -> (string * int) option
(** Test seam: test_mir and the checker model map a PC back to its
    instruction.  [(fname, iid)] of the slot containing the PC, if any. *)

val entries : t -> (string * int * int) list
(** [(name, base_pc, instr_count)] per function, in layout order — the
    serializable image of the layout for artifact files. *)

val branch_pcs : t -> Func.t -> int list
(** PCs of the conditional branches of a function, ascending. *)
