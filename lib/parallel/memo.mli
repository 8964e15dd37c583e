(** Domain-safe, exactly-once cache keyed structurally, optionally
    bounded as an LRU.

    Concurrent callers of {!fetch} (or {!find_or_add}) with the same
    key block until the single in-flight load finishes; distinct keys
    load in parallel (the lock is not held while loading).  A load
    that returns [Error] or raises is not cached: the key is released,
    the error or exception goes to the caller that ran it, and blocked
    callers race to retry.

    With [capacity], at most [capacity] loaded entries stay resident:
    completing a load past the bound evicts the least-recently-used
    loaded entry.  An in-flight load is never evicted and does not
    count against the bound.  The structural contract is exported as
    predicates ({!check_invariants}) that tests assert
    after arbitrary concurrent interleavings. *)

type ('k, 'v) t

val create : ?capacity:int -> ?metrics_prefix:string -> unit -> ('k, 'v) t
(** Unbounded unless [capacity] is given; raises [Invalid_argument] if
    [capacity < 1].  An unbounded memo counts its hits and completed
    loads in the stable [memo.hits] / [memo.computed] counters, which
    depend only on the multiset of requested keys.  A bounded one does
    not: its hits depend on request order.  [metrics_prefix] registers
    unstable [<p>_hits] / [<p>_misses] / [<p>_evictions] counters for
    this memo alone. *)

val fetch :
  ('k, 'v) t ->
  'k ->
  (unit -> ('v, 'e) result) ->
  [ `Hit of 'v | `Loaded of 'v | `Err of 'e ]
(** [`Loaded] when this call ran the loader, [`Hit] otherwise —
    including a call that waited on another caller's load of the same
    key.  A hit makes the entry the most recently used. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** {!fetch} with a loader that cannot fail. *)

val computed : ('k, 'v) t -> int
(** Test seam: test_parallel checks exactly-once loading; reports read
    [memo.computed] from the registry.  How many loads actually ran to
    completion — the harness's "compiled/built at most once per configuration"
    counters. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Test seam: test_parallel checks residency after eviction.  Loaded and
    resident (not in flight, not evicted). *)

type stats = { hits : int; misses : int; evictions : int; size : int }
(** [misses] counts loads started, failed ones included; [size] the
    resident loaded entries.  An exact cut, taken under the lock. *)

val stats : ('k, 'v) t -> stats
(** Test seam: test_parallel checks hits, misses and evictions; reports read
    them from the registry. *)

(** {2 Invariants as predicates} *)

val check_invariants : ('k, 'v) t -> (string * bool) list
(** Test seam: test_parallel asserts the structural contract after concurrent
    interleavings.  [capacity_ok] (no more than [capacity] loaded entries are
    resident), plus [size_exact] (the resident count the eviction policy
    relies on matches the table) and [recency_distinct] (no two resident
    entries share a last-use stamp, so the LRU victim is unique); labelled. *)
