(** Set-associative LRU cache model. *)

type t

val create : Config.cache_params -> t
val access : t -> int -> bool
(** [access t addr] — true on hit; on miss the block is filled. *)

val accesses : t -> int
(** Test seam: test_pipeline checks the access count; the timing model reads
    {!misses}. *)

val misses : t -> int
val reset_stats : t -> unit
(** Test seam: test_pipeline zeroes the counts between cases. *)
