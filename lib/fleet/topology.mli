(** How the N shards of one fleet are addressed.

    Shard addresses derive purely from the base address — Unix path
    [p] → [p.0 … p.(N-1)], TCP port [q] → [q … q+N-1] — so the
    launcher, the routing clients and the peer-sharing servers agree
    on the topology (and on the ring node names) without a
    registry. *)

type address = [ `Unix of string | `Tcp of string * int ]

type t

val create : shards:int -> address -> t
(** [shards] must be ≥ 1. *)

val address : t -> int -> address
val shard_name : t -> int -> string
(** The canonical ring node name of shard [i]. *)

val names : t -> string list
val ring : t -> Ring.t
(** The ring over {!names}: every process building it from the same
    topology routes every key identically. *)
