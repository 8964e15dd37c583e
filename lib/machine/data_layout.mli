(** Numeric data addresses, for pointer comparison/degradation and for the
    cache model: globals live in a flat segment, each call frame gets a
    region of a downward-growing stack. *)

val cell_bytes : int
(** 1 — one address unit per cell, so that pointer arithmetic on values
    coincides with numeric address arithmetic. *)

val globals_base : int
val stack_top : int

val offsets : Ipds_mir.Var.t list -> int list
(** Offset of each variable's first cell in a segment laid out in list
    order: the program's globals from {!globals_base}, a function's
    locals from its frame's base.  {!global_address} and
    {!local_offset} read it, and {!Memory} precomputes its addresses
    from it once per run. *)

val global_address : Ipds_mir.Program.t -> Ipds_mir.Var.t -> int -> int
(** Address of cell [index] of a global. *)

val frame_size : Ipds_mir.Func.t -> int
(** Bytes a frame of this function occupies. *)

val local_offset : Ipds_mir.Func.t -> Ipds_mir.Var.t -> int -> int
(** Byte offset of a local cell within its frame. *)
