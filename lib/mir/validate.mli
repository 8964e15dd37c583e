(** Structural well-formedness checks for programs. *)

type error = {
  context : string;  (** function name or "program" *)
  message : string;
}

val check : Program.t -> error list
(** Test seam: tests assert that a program has no violation at all; the
    library calls {!check_exn}.  All violations found: dangling block indices,
    non-dense instruction ids, dense ids not numbered in block order (see
    {!Func}), out-of-range registers, variables used outside their scope,
    calls to names that are neither defined nor declared, duplicate or missing
    [main], blocks with out-of-range entry.  Each function's errors come in
    the order they were found (a cause before its consequences), functions in
    program order, then the program-wide ones. *)

val check_exn : Program.t -> unit
(** Raises [Invalid_argument] with the first error rendered. *)
