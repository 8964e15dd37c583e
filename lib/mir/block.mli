(** Basic blocks.  [term_iid] is the instruction id of the terminator; for
    conditional branches it is the branch's identity throughout the IPDS
    pipeline (BSV/BCV/BAT slots are keyed on the branch's PC, which
    {!Layout} derives from this id). *)

type t = {
  index : int;  (** position in [Func.blocks]; 0 is the entry block *)
  label : string;
  body : Instr.t array;
  term : Terminator.t;
  term_iid : int;
}

val successors : t -> int list
