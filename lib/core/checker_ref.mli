(** Reference checker: the straightforward list-based implementation
    the flat-image {!Checker} replaced, kept as an executable
    specification.

    Differential property tests pin {!Checker} against this on random
    programs and every workload (verdicts, alarms and counter totals
    must agree exactly).

    Faithful to the original's observability too: it performs the same
    3-4 atomic {!Ipds_obs.Registry} hits per committed branch the
    pre-flat checker did, and additionally mirrors the totals in plain
    fields — read them with {!counts} without touching the registry.
    The registry names dedup onto the live checker's cells, so tests
    asserting registry deltas must snapshot around the flat run before
    replaying this reference. *)

type check_info = {
  alarm : Checker.alarm option;
  was_checked : bool;
  bat_nodes : int;
}

type counts = {
  calls : int;
  returns : int;
  branches : int;
  checked : int;
  verdict_ok : int;
  verdict_alarm : int;
  bat_updates : int;
}

type t

val create : lookup:(string -> Tables.t) -> t
val on_call : t -> string -> int
val on_return : t -> unit
(** Raises [Invalid_argument] when the stack is empty. *)

val on_branch : t -> pc:int -> taken:bool -> check_info
val depth : t -> int
val alarms : t -> Checker.alarm list
val branches_seen : t -> int
val counts : t -> counts
