(** Process-global, domain-safe metrics registry.

    Metrics are named, created on first use (creation is idempotent:
    asking for an existing name returns the existing metric; asking with
    a different kind is a programming error), and backed by per-domain
    shards of [Atomic] cells, so hot-path increments from any number of
    domains never contend on a lock and merge deterministically.

    {b Determinism contract.}  All metric values are integers and every
    read is a commutative merge (sum for counters and histogram buckets,
    max for gauges), so a {e stable} metric whose increments are a
    deterministic multiset — as every increment driven by the
    deterministic experiment harness is — has a value independent of the
    domain count and of scheduling.  Metrics whose very increments
    depend on parallelism (pool utilisation, wait counts) must be
    registered with [~stable:false]; they are excluded from
    [snapshot ~stability:`Stable], which is what the bench report's
    [metrics] object is built from and what the [--jobs 1] vs
    [--jobs N] byte-identity guarantee covers.

    Wall-clock timers are unstable histograms too ({!timer}, {!time}):
    the registry is the one place a timing goes, and reports show them
    in their unstable [runtime] section, never in the stable object.

    Snapshots taken while other domains are still incrementing are
    internally consistent per cell but not a point-in-time cut; the
    harness only snapshots at phase boundaries when workers are idle. *)

(** {2 Counters} *)

type counter

val counter : ?stable:bool -> string -> counter
(** [stable] defaults to [true]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
val counter_reset : counter -> unit

(** {2 Gauges (monotone max)} *)

type gauge

val gauge : ?stable:bool -> string -> gauge

val gauge_max : gauge -> int -> unit
(** Raises the gauge to [v] if above its current value.  Max-merge is
    the only parallel-deterministic gauge semantics, so that is the only
    one offered; values are clamped at 0 from below. *)

val gauge_value : gauge -> int
val gauge_reset : gauge -> unit

(** {2 Fixed-bucket histograms} *)

type histogram

val histogram : ?stable:bool -> ?bounds:int array -> string -> histogram
(** [bounds] are inclusive upper bounds of the buckets, strictly
    increasing; one overflow bucket is added past the last bound.  The
    default is powers of four from 1 to 4^10. *)

val observe : histogram -> int -> unit

type histogram_view = {
  bounds : int array;
  counts : int array;  (** one per bound, plus the overflow bucket *)
  count : int;
  sum : int;
}

val histogram_value : histogram -> histogram_view
val histogram_reset : histogram -> unit

(** {2 Wall-clock timers} *)

val timer : string -> histogram
(** The unstable histogram [name] over the one fixed nanosecond bound
    array every timer shares: powers of four from 2{^10} ns (~1 µs) to
    2{^36} ns (~69 s).  By convention the name ends in [.ns]. *)

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and observe its wall-clock duration in nanoseconds
    (clamped at 0), also when it raises; the exception is re-raised
    with its backtrace.  Takes no lock and allocates nothing of its
    own. *)

(** {2 Snapshots} *)

type value =
  | Counter of int
  | Gauge of int
  | Histogram of histogram_view

val snapshot :
  ?stability:[ `Stable | `Unstable | `All ] -> unit -> (string * value) list
(** Sorted by metric name; [stability] defaults to [`All]. *)

val snapshot_json : ?stability:[ `Stable | `Unstable | `All ] -> unit -> Json.t
(** Counters render as bare integers; gauges as
    [{"type":"gauge","value":v}]; histograms as
    [{"type":"histogram","count":..,"sum":..,"buckets":[{"le":..,"n":..}…]}]
    with [le:null] on the overflow bucket. *)

val reset : unit -> unit
(** Zero every registered metric, timers included (the registrations
    survive).  For tests and long-lived processes starting a fresh
    run. *)
