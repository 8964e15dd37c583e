(** A small fixed-size domain pool for the experiment harness.

    [create ~jobs ()] owns [jobs - 1] worker domains; the caller of
    {!map} is the remaining worker, so [~jobs:1] spawns no domains and
    degenerates to [List.map] — sequential behaviour is recovered
    exactly, not approximated.

    {!map} may be called from inside a task running on the pool (the
    harness fans workloads out and each workload fans its attack
    attempts out).  The waiting caller keeps executing queued tasks
    while its own are outstanding, so nested maps cannot deadlock. *)

type t

val create : ?jobs:int -> unit -> t
(** [jobs] defaults to {!default_jobs}; values below 1 are clamped. *)

val jobs : t -> int
(** The parallelism the pool was created with (workers + caller). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map.  If one or more applications raise,
    the exception of the smallest-index element is re-raised (with its
    backtrace) after every task of this call has settled — so the
    raised exception does not depend on domain scheduling. *)

val map' : t option -> ('a -> 'b) -> 'a list -> 'b list
(** [map' None] is [List.map] (no pool anywhere in scope);
    [map' (Some t)] is [map t]. *)

val shutdown : t -> unit
(** Drains nothing (all maps have returned by construction), stops the
    workers and joins them.  Idempotent. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)

val with_opt : jobs:int -> (t option -> 'a) -> 'a
(** Turn a job count into the optional pool every harness driver takes:
    a pool of [jobs] for the duration of [f], or [None] for [jobs <= 1],
    so {!map'} degenerates to [List.map] without spawning anything. *)

val default_jobs : unit -> int
(** [IPDS_JOBS] from the environment if set to a positive integer,
    otherwise [max 1 (Domain.recommended_domain_count () - 1)]. *)
