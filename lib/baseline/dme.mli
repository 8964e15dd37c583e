(** Diversified-memory-execution (DME) baseline.

    The comparison point from the diversity literature: run two
    variants of the same program that differ only in data layout, feed
    them the same inputs, and flag any divergence in externally visible
    behaviour.  A benign run is layout-oblivious, so the variants
    agree; a memory attack expressed in {e physical} terms (an absolute
    address, {!Ipds_machine.Tamper.site.Mem_write_at}) lands on
    different logical state in each variant and makes them diverge.

    {!decorrelate} builds the second variant by reversing the
    declaration order of the globals segment and of every function's
    locals: cell addresses move (whenever a frame or the globals
    segment holds more than one variable), while instruction ids,
    control flow, and logical semantics stay identical — so benign
    traces are bit-equal and the variant pair costs exactly two
    executions (the ~2x overhead the literature reports).

    {!canonical} projects a run onto what an external comparator can
    see — branch-trace digest, committed-branch count, stop reason,
    and the output stream; {!diverged} is the detector. *)

type outcome = {
  trace_digest : int;
  branches : int;
  reason : string;  (** canonical stop-reason tag, exit value included *)
  outputs : int list;
}

val decorrelate : Ipds_mir.Program.t -> Ipds_mir.Program.t
(** Involutive up to list order: applying it twice restores the
    original declaration order. *)

val canonical : Ipds_machine.Interp.outcome -> outcome
val diverged : outcome -> outcome -> bool

val run :
  ?config:Ipds_machine.Interp.config ->
  Ipds_mir.Program.t ->
  Ipds_machine.Interp.outcome
(** Test seam: test_baseline runs variant pairs through it.  [Interp.run]
    with [config] (default {!Ipds_machine.Interp.default_config} with trace
    recording off) — convenience for driving variant pairs. *)
