(** Per-function feasibility facts: branch directions the static analyses
    have proven can never commit in an untampered run.

    A fact set induces a {e pruned view} of the block CFG — the subgraph
    left after deleting every pruned branch edge — and every flow-sensitive
    analysis ({!Ipds_dataflow.Framework}) runs over such a view.  The full
    (nothing-pruned) view of a raw {!Cfg.t} is the degenerate case, so one
    solver serves both the classic and the feasibility-refined pipelines.

    {b Soundness invariants} (exported as predicates, checked in tests):

    - {e subview}: the pruned view's edges are a subset of the raw CFG's
      edges, block for block, preserving raw successor order;
    - {e entry preserved}: the entry block is never pruned away and heads
      the pruned reverse postorder;
    - {e monotone}: {!prune} only grows the pruned set — refinement
      iterations can delete edges, never resurrect them.

    Pruning an edge is sound exactly when no untampered execution can
    commit that branch direction; the producer ({!Ipds_correlation}'s
    refinement loop) owns that proof obligation, and the property tests
    replay untampered traces against the pruned set to enforce it. *)

type view = {
  v_blocks : int;
  v_succs : int -> int list;
  v_preds : int -> int list;
  v_rpo : int array;  (** reachable blocks only, entry first *)
  v_reachable : bool array;
}
(** What a dataflow solver needs of a (possibly pruned) block graph. *)

type t

val full : Cfg.t -> t
(** Nothing pruned: the view coincides with the raw CFG. *)

val prune : t -> (int * bool) list -> t
(** [prune t dirs] adds branch directions [(branch_iid, taken)] to the
    pruned set and rebuilds the view.  Already-pruned and duplicate
    entries are ignored; unknown iids (not a conditional branch of this
    function) raise [Invalid_argument].  Monotone: the result's pruned
    set contains [t]'s. *)

val is_pruned : t -> int -> bool -> bool
val pruned_count : t -> int

val pruned_directions : t -> (int * bool) list
(** Sorted by [(branch_iid, taken)] — deterministic regardless of the
    order facts were discovered in. *)

val total_directions : t -> int
(** [2 *] number of conditional branches of the function. *)

val branch_ok : t -> int -> bool -> bool
(** [branch_ok t iid taken] — the direction survives (is not pruned).
    Shape expected by {!Point_graph.make}'s [?branch_ok] filter. *)

val view : t -> view
val view_of_cfg : Cfg.t -> view
(** The raw CFG as a view, sharing its arrays (no filtering cost). *)

(** {2 Soundness invariants as predicates} *)

val invariant_subview : t -> bool
(** Test seam: the refine property tests assert the pruned view is a subgraph
    of the full one. *)

val invariant_entry_preserved : t -> bool
(** Test seam: the refine property tests assert the pruned view keeps the
    entry block. *)

val invariant_monotone : earlier:t -> later:t -> bool
(** Test seam: the refine property tests assert that pruning only grows. *)
