(** Instruction-level flow graph.

    Points are instruction ids (body instructions and terminators alike,
    dense in [0 .. instr_count - 1]).  A body instruction flows to the next
    instruction of its block (or the terminator); a terminator flows to the
    first point of each successor block.

    This is the graph on which the correlation analysis asks its
    path-sensitivity questions, e.g. "can a may-store of [v] execute
    between this load and that branch?".

    Successors and predecessors are stored as compressed rows (an offset
    array and one int array of edges each).  A query walks them
    depth-first with an int stack the graph owns and reuses, so it
    allocates only the [bool array] it returns.  Queries on one graph
    must therefore not run concurrently. *)

type t

val make : ?branch_ok:(int -> bool -> bool) -> Ipds_mir.Func.t -> t
(** [branch_ok term_iid taken] (default: always true) filters branch
    edges: a direction it rejects contributes no terminator→successor
    edge, so path queries range over the feasibility-pruned graph
    ({!Feasibility.branch_ok}).  Jump/return edges are never filtered. *)

val n_points : t -> int

val succs : t -> int -> int list
(** Test seam: test_cfg checks the successor lists the CSR arrays hold; the
    analysis walks the arrays.  Successors of a point; a terminator's in
    successor-block order. *)

val preds : t -> int -> int list
(** Test seam: test_cfg checks the predecessor lists the CSR arrays hold; the
    analysis walks the arrays. *)

val reach_after : t -> ?also:int -> int -> avoid:int -> bool array
(** [reach_after t ~also p ~avoid] marks every point reachable from [p]
    in one or more steps along edges that never enter [avoid] or [also]:
    neither is marked, nor anything reached only through them.  [p]
    itself is marked only if it lies on such a cycle.  An argument that
    is not a point (the default [also] is [-1]) avoids nothing. *)

val co_reach : t -> int -> avoid:int -> bool array
(** [co_reach t p ~avoid] marks every point from which [p] is reachable
    in one or more steps without entering [avoid] on the way ([avoid]
    itself is not marked); [p] itself is marked only if it lies on such
    a cycle. *)
