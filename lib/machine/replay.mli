(** Drive an {!Ipds_core.Checker} from a committed event stream, exactly
    as the interpreter drives it inline.  Because {!Interp} emits sink
    events in commit order, replaying a run's sink output yields the
    same verdicts, in the same order, as checking inline — the contract
    the remote verdict server is built on. *)

val feed_all :
  Ipds_core.Checker.t -> defined:(string -> bool) -> Event.t list -> unit
(** Apply each event in order: [Call] to a defined function pushes a
    checker frame, [Ret] pops one, [Branch] is verified; everything
    else is ignored.  [defined] decides whether a callee has tables
    (extern calls appear in the stream but are not checked).  Trusts
    its input: a [Ret] with an empty checker stack raises, as
    {!Ipds_core.Checker} does — callers that cannot trust the stream
    must guard with {!Ipds_core.Checker.depth}. *)
