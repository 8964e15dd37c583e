(** The IPDS runtime checking engine (paper §5.4).

    Keeps a stack of per-activation BSVs mirroring the call stack:
    entering a function pushes a fresh all-Unknown status vector (and
    applies the function's entry actions); returning pops it.  Every
    committed conditional branch is verified against its expected status
    and then drives BAT updates.

    The implementation is allocation-free on the hot path: activations
    live in a preallocated growable arena (a flat {!Image.t} array plus
    a 2-bit-packed BSV byte slab), branch verdicts are packed ints, and
    the stable [checker.*] counters are accumulated locally and flushed
    to the registry when the stack empties or on {!flush}.  A
    steady-state checked branch allocates zero minor words — regression
    tested.

    The checker never stops on an alarm — it records it and continues,
    so one run can report every infeasible-path violation it sees (the
    hardware would trap on the first). *)

type alarm = {
  fname : string;
  branch_pc : int;
  expected : Status.t;
  actual_taken : bool;
  sequence : int;  (** how many branches had committed before this one *)
}

type verdict = int
(** Packed branch verdict; decode with the accessors below.  Never
    allocated on the ok path. *)

val verdict_checked : verdict -> bool
(** The branch was marked in the BCV. *)

val verdict_alarm : verdict -> bool
(** Status mismatch; the alarm was recorded (see {!last_alarm}). *)

val verdict_violation : verdict -> bool
(** Protocol violation: a branch arrived with no active frame.  The
    typed replacement for the old hot-path exception — the interpreter
    maps it to its existing fault handling. *)

val verdict_ok : verdict -> bool
(** Neither alarm nor violation. *)

val verdict_expected : verdict -> Status.t
(** Test seam: test_core checks the expected status a verdict consulted.  The
    expected status consulted ([Unknown] for unchecked branches). *)

val verdict_bat_nodes : verdict -> int
(** BAT nodes applied by the update. *)

type t

val create : lookup:(string -> Image.t) -> t
val on_call : t -> string -> int
(** [push] the image [lookup] gives for the function's name. *)

val push : t -> Image.t -> int
(** Push an activation of the function whose image this is; returns
    the number of entry actions applied.  The one push path: {!on_call}
    looks the image up and comes here, and a caller that resolved the
    image already (the verdict server, once per callee name per batch)
    calls it directly. *)

val on_return : t -> bool
(** Pop an activation.  [false] — and no state change — when the stack
    is empty (the typed replacement for the old [Invalid_argument]). *)

val on_branch : t -> pc:int -> taken:bool -> verdict
(** Verify-then-update for a committed conditional branch of the
    current (top-of-stack) activation. *)

val depth : t -> int
(** O(1). *)

val alarms : t -> alarm list
(** All alarms so far, in commit order. *)

val alarm_count : t -> int
(** O(1). *)

val alarms_since : t -> int -> alarm list
(** [alarms_since t n]: alarms recorded after the first [n], in commit
    order.  O(fresh alarms), for batch loops over long traces. *)

val last_alarm : t -> alarm option
(** The most recent alarm (the one a just-returned alarm verdict
    recorded). *)

val branches_seen : t -> int
(** Test seam: tests check how many branches a checker verified, without
    reading the registry. *)

val flush : t -> unit
(** Flush locally accumulated [checker.*] counter deltas to the
    registry.  Called automatically when the activation stack empties;
    call it explicitly when a trace is abandoned mid-flight (the
    interpreter, pipeline and verdict server all do). *)

val expected_of_pc : t -> int -> Status.t option
(** Status the top activation holds for [pc]'s slot. *)

val current_statuses : t -> (int * Status.t) list
(** Test seam: test_core reads the top activation's BSV after a violation.
    (slot, status) of the top activation, for inspection/debugging; empty with
    no active frame.  Reads the packed BSV directly. *)
