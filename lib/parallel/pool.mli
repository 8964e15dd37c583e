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

val jobs : t -> int
(** Test seam: test_parallel checks the clamped job count.  The parallelism
    the pool was created with (workers + caller). *)

val map' : t option -> ('a -> 'b) -> 'a list -> 'b list
(** [map' None] is [List.map] (no pool anywhere in scope);
    [map' (Some t)] is an order-preserving parallel map over [t].  If
    one or more applications raise, the exception of the
    smallest-index element is re-raised (with its backtrace) after
    every task of this call has settled — so the raised exception does
    not depend on domain scheduling. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** Test seam: tests fix the pool size; the CLI goes through {!with_opt}.
    Start a pool of [jobs] (default {!default_jobs}; values below 1 are
    clamped), run, then stop and join its workers, also on exception. *)

val with_opt : jobs:int -> (t option -> 'a) -> 'a
(** Turn a job count into the optional pool every harness driver takes:
    a pool of [jobs] for the duration of [f], or [None] for [jobs <= 1],
    so {!map'} degenerates to [List.map] without spawning anything. *)

val default_jobs : unit -> int
(** [IPDS_JOBS] from the environment if set to a positive integer,
    otherwise [max 1 (Domain.recommended_domain_count () - 1)]. *)
