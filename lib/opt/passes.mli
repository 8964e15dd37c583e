(** Classical scalar optimizations, used to study the paper's remark that
    "compiler optimizations can remove some correlations, reducing the
    detection rate".

    All passes are intra-procedural and semantics-preserving (checked by
    property tests against the interpreter):

    - {!const_prop}: operands whose unique reaching definition chain ends
      at a constant become immediates; fully-constant binops fold;
      branches with a statically known direction become jumps;
    - copy propagation: a use of [r] whose unique definition is [r := s] reads
      [s] directly when [s] provably still holds the same value;
    - {!dce}: instructions that define a dead register and have no side
      effect (including loads — memory reads are unobservable here)
      disappear.

    [optimize] iterates the three to a fixpoint (bounded), then
    {!Promote.program} is usually applied on top by callers. *)

val const_prop : Ipds_mir.Program.t -> Ipds_mir.Program.t
(** Test seam: test_opt checks one pass in isolation; callers run
    {!optimize}. *)

val dce : Ipds_mir.Program.t -> Ipds_mir.Program.t
(** Test seam: test_opt checks one pass in isolation; callers run
    {!optimize}. *)

val redundant_load_elim : Ipds_mir.Program.t -> Ipds_mir.Program.t
(** Test seam: test_opt checks one pass in isolation; callers run
    {!optimize}.  Block-local redundant-load elimination with
    store-to-load forwarding: a load of an exactly-aliased cell whose
    value is already in a register (from an earlier load or store, with
    no possible intervening write) becomes a move.  This is the pass
    that *removes load–load correlations*: the second check of a flag no
    longer re-reads memory, so tampering between the checks becomes
    invisible both to the program and to IPDS — the effect the paper
    attributes to compiler optimization. *)

val optimize : Ipds_mir.Program.t -> Ipds_mir.Program.t
(** 4 rounds of rle → const-prop → copy-prop → dce. *)
