(** The one stable hash used by every fleet component.

    Cache shard selection (in-process) and ring placement (across
    processes) must agree on a hash that is identical across runs,
    processes and OCaml versions — [Hashtbl.hash] guarantees none of
    that.  The hash only spreads keys and is never a content address
    (that is the store's SHA-256), so the fleet folds the first eight
    bytes of Stdlib's [Digest] (MD5) into a uniform non-negative 62-bit
    integer. *)

val stable_hash : string -> int
(** Deterministic, uniform, non-negative. *)

val shard_of : shards:int -> string -> int
(** [stable_hash] reduced mod [shards]; [shards] must be positive. *)
