(** Two-level adaptive branch predictor (gshare variant): a global history
    register XOR-indexed into a table of 2-bit saturating counters. *)

type t

val create : history_bits:int -> t
val observe : t -> pc:int -> taken:bool -> bool
(** Predict then update; returns whether the prediction was correct. *)

val lookups : t -> int
val mispredicts : t -> int
