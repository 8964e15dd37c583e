(** Scalar register promotion (mem2reg).

    Models the paper's "graph coloring based register allocator": scalar
    local variables whose address is never taken live in registers in the
    compiled binaries the paper attacks, so memory tampering cannot touch
    them.  Promoting them (one dedicated register per variable, direct
    loads/stores become moves) gives the machine the same property:
    loop counters and temporaries vanish from the tamperable surface,
    while arrays, address-taken locals, and globals — the state real
    attacks corrupt — stay memory-resident.

    Promotion preserves instruction counts and ids (each load/store is
    replaced 1:1 by a move), so layouts computed before and after differ
    only in which instructions touch memory. *)

val program : Ipds_mir.Program.t -> Ipds_mir.Program.t
(** Promote every eligible local of every function. *)

val promoted_vars : Ipds_mir.Program.t -> Ipds_mir.Var.t list
(** Test seam: test_opt checks which locals promotion picks.  The locals
    {!program} would promote (for reporting/tests). *)
