(** Seeded, structurally random MiniC server generator.

    Every generated program is a population member shaped like the
    hand-written workloads: globals holding server state, a couple of
    helper routines, and a [main] that reads a bounded request count
    from the input script and dispatches each request through an
    if-chain.  Programs are {b benign by construction}:

    - every loop is bounded — counted [for] loops with literal bounds
      (or a bound derived from [input() % k + c]) and count-down
      [while] loops whose counter is never touched by the body, with
      [continue] restricted to [for] bodies;
    - array subscripts are always masked to the (power-of-two) array
      size, and pointer arguments to the extern runtime point at
      element 0 with clamped lengths, so no run can fault;
    - helper calls go strictly down the helper index, so there is no
      recursion.

    Together with the machine's total arithmetic ([x / 0 = 0]) this
    means each program terminates well inside the interpreter's step
    budget and, being deterministic given the input script, produces
    zero IPDS alarms on benign runs.

    {b Determinism.}  A program is a pure function of [(spec, seed,
    index)]: generation draws from
    [Random.State.make [| seed; index; salt |]], never from shared
    state, so populations are reproducible and {!population}'s pool
    fan-out is bit-identical for any job count. *)

type spec = {
  helpers : int;  (** helper-function count upper bound (>= 1) *)
  dispatch : int;  (** dispatch-arm count upper bound (>= 2) *)
  max_depth : int;  (** statement nesting bound in generated bodies *)
}

val source : ?spec:spec -> seed:int -> index:int -> unit -> string
(** The program's syntax rendered through {!Printer.program} — the
    canonical form fed to {!Ipds_minic.Minic.compile} so generated
    members exercise the full front end. *)

val compile : ?spec:spec -> seed:int -> index:int -> unit -> Ipds_mir.Program.t
(** Test seam: tests compile generated members without spelling out the front
    end.  [Minic.compile (source ...)]. *)

val population :
  ?spec:spec ->
  ?pool:Ipds_parallel.Pool.t ->
  seed:int ->
  count:int ->
  unit ->
  string list
(** Sources for indices [0 .. count-1], generated in fixed-size chunks
    over [pool] (none: sequential) and reassembled in index order — the
    result is byte-identical with or without a pool, of any size. *)
