(** Typed pass manager for the compile-side pipeline.

    A pass is a named unit of compilation work with a declared scope:
    [Program] passes run once per program (layout, alias-summary
    preparation, whole-image encoding), [Function] passes run once per
    function (correlation analysis, table construction) and are what
    {!Ipds_core.System.build} fans out over a domain pool.

    Every execution is observed: wall-clock goes to the unstable
    registry timer ["pass.<name>.ns"] ({!Ipds_obs.Registry.time};
    scheduling-dependent, so it lives in the runtime section of reports)
    and the number of units processed to the {e stable} counter
    ["pass.<name>.units"] — the unit multiset is fixed by the build set,
    so unit counts are byte-identical for any [--jobs] value.

    Pass names are registered at creation (module initialisation), so
    {!report} lists the full pipeline with stable names even for passes
    that have not run yet. *)

type scope =
  | Program  (** one unit of work per program *)
  | Function  (** one unit of work per function; parallelizable *)

type ('a, 'b) t

val v : name:string -> scope:scope -> ('a -> 'b) -> ('a, 'b) t
(** Registers the pass name (idempotent per name; re-registration with a
    different scope raises [Invalid_argument]). *)

val scope_name : scope -> string
(** ["program"] or ["function"]. *)

val run : ('a, 'b) t -> 'a -> 'b
(** Run on one unit of work: time under the pass's timer, count one
    unit.  Safe to call concurrently from any domain — per-function
    passes are executed through [run] from inside pool tasks. *)

(** {2 Reporting} *)

type report_row = {
  r_name : string;
  r_scope : scope;
  r_units : int;  (** stable: units processed so far in this process *)
  r_seconds : float;  (** accumulated wall-clock, the timer's sum; unstable *)
}

val report : unit -> report_row list
(** Every registered pass, in registration (pipeline) order. *)

val units : string -> int
(** Stable unit count of one pass (0 for unknown names) — what the
    incremental tests assert on. *)

val render_report : report_row list -> string
(** Plain-text table: name, scope, units, wall seconds — the one per-pass
    table, printed by [ipds analyze]/[compile] and the bench
    [compile-time] target alike. *)
