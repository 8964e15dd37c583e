(** Program memory: a global segment plus a stack of frames, each holding
    its function's local variables.  Cells store {!Value.t}, so memory can
    hold pointers (and attacks can corrupt them).  Dangling-frame
    dereferences are detected and fault.

    Everything fixed for a run is resolved once, in {!create} and
    {!shape}: globals are an array indexed by variable id, a frame keeps
    its locals' cells in a slot array reached through a program-wide
    variable → slot map, and every address is a precomputed
    {!Data_layout.offsets} entry plus the index.  Finding a frame by id
    checks the innermost frame first, then searches the live stack by
    id. *)

type t

val create : Ipds_mir.Program.t -> t

type shape
(** Where a function's locals live in each of its frames. *)

val shape : Ipds_mir.Func.t -> shape
(** Computed once per function and run; {!enter} reuses it per call. *)

val enter : t -> shape -> int
(** Push a frame of the shape's function; returns its id (> 0). *)

val push_frame : t -> Ipds_mir.Func.t -> int
(** Test seam: test_machine and the interpreter oracle push a frame without
    the interpreter.  [enter t (shape f)]. *)

val pop_frame : t -> unit
val depth : t -> int
(** Test seam: test_machine checks the frame stack depth. *)

val frame_alive : t -> int -> bool
val active_frame : t -> int
(** Test seam: test_machine checks frame ids across nested activations.  Id of
    the innermost frame; raises if none. *)

val cells : t -> frame:int -> Ipds_mir.Var.t -> Value.t array
(** The variable's cells, shared with memory (writes land); [[||]] when
    the frame is dead or the variable absent.  Frame 0 is the global
    segment. *)

val wrap : Ipds_mir.Var.t -> int -> int
(** The index wrapped into the variable's bounds, as every access and
    address here wraps it. *)

val load : t -> frame:int -> Ipds_mir.Var.t -> int -> Value.t option
(** [None] when the frame is dead or the variable absent; the index is
    wrapped into bounds. *)

val store : t -> frame:int -> Ipds_mir.Var.t -> int -> Value.t -> bool
(** [false] on a dead frame / absent variable. *)

val address : t -> frame:int -> Ipds_mir.Var.t -> int -> int
(** Numeric address of the cell (for the cache model and pointer
    degradation): {!Data_layout.global_address}, or the frame's base
    plus {!Data_layout.local_offset}.  Dead frames still have a (stale)
    address, [0xdead0000] plus the wrapped index. *)

val live_cells :
  t -> scope:[ `Active_locals | `Anywhere ] -> (int * Ipds_mir.Var.t * int) list
(** Candidate victim cells for tampering: [(frame, var, index)].
    [`Active_locals] restricts to the innermost frame's locals (the
    buffer-overflow attack model); [`Anywhere] also includes globals and
    outer frames (the format-string model).  The order is fixed: a
    seeded pick indexes into it. *)
