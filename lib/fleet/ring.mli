(** Consistent-hash ring for client-side shard routing.

    Node names are hashed to 64 points each with the fleet's
    {!Hashing.stable_hash}, so every process that builds a ring from the
    same names routes every key identically — no coordination, no proxy
    hop.  Removing a node remaps only the keys that routed to it
    (surviving points never move). *)

type t

val create : string list -> t
(** Raises [Invalid_argument] on an empty node list. *)

val route : t -> string -> int
(** Index (into the creation-order node list) owning [key]. *)

val route_name : t -> string -> string

val successors : t -> string -> int list
(** All distinct node indices in ring order from [key]'s point; head is
    [route t key].  This is the failover order: a client that finds a
    shard dead tries the next distinct shard on the ring. *)
