(** A numbered instruction.

    Every instruction (and every block terminator) carries a function-unique
    id [iid], assigned densely from 0 when a function is finalised.  Ids
    double as program points for the dataflow analyses and map to synthetic
    PC addresses via {!Layout}. *)

type t = {
  iid : int;
  op : Op.t;
}
