(** Functions: a CFG of basic blocks plus local declarations.

    Instruction ids [0 .. instr_count - 1] cover every body instruction and
    every terminator, densely, numbered block by block in [blocks] order:
    a block's body first, its terminator last.  So block [b] covers
    [[b.term_iid - Array.length b.body, b.term_iid]].  {!Builder} and
    [Opt.Rebuild] number this way and {!Validate} rejects any other
    numbering.  {!location} maps an id to (block, position) coordinates
    in O(log blocks). *)

type location =
  | Body of int * int  (** block index, position in [body] *)
  | Term of int  (** terminator of block *)

type t = {
  name : string;
  params : Reg.t list;
  locals : Var.t list;
  blocks : Block.t array;
  reg_count : int;  (** registers are numbered [0 .. reg_count - 1] *)
  instr_count : int;
}

val entry : t -> Block.t
(** Test seam: test_mir and test_opt read a function's entry block. *)

val location : t -> int -> location
(** [location f iid] finds where instruction [iid] lives, by a binary
    search over [blocks] on [term_iid].  Raises [Not_found] for an
    out-of-range id, and for any id of a function with no blocks. *)

val op_at : t -> int -> Op.t option
(** The payload at [iid], or [None] if [iid] is a terminator. *)

val branches : t -> (int * Block.t) list
(** All conditional branches as [(term_iid, block)], in block order. *)

val iter_instrs : t -> (int -> Op.t -> unit) -> unit
(** Iterate body instructions (not terminators) in block order. *)

val label_of_block : t -> int -> string
