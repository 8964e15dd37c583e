(** Generic iterative monotone dataflow framework over (possibly
    feasibility-pruned) block CFG views.

    Solvers take an {!Ipds_cfg.Feasibility.view} — the raw CFG
    ({!Ipds_cfg.Feasibility.view_of_cfg}) or a pruned subgraph
    ({!Ipds_cfg.Feasibility.view}) — so propagation only follows edges
    the feasibility layer kept.  On a lattice with monotone transfers
    the maximum-fixed-point solution is unique, so the pruned solution
    is always at least as tight as (pointwise subsumed by) the unpruned
    one, and the [--precision off] solution is independent of the
    worklist order.

    The worklist is priority-ordered by reverse postorder (the order
    of {!Ipds_cfg.Cfg.reverse_postorder}), not FIFO insertion order;
    [?visits] reports how many block visits the solve took, and every
    solve also accumulates its visits into the stable obs counter
    ["dataflow.block_visits"]. *)

module type DOMAIN = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Forward (D : DOMAIN) : sig
  val solve :
    ?visits:int ref ->
    ?edge:(src:int -> dst:int -> D.t -> D.t) ->
    ?widen:(D.t -> D.t -> D.t) ->
    Ipds_cfg.Feasibility.view ->
    entry:D.t ->
    bottom:D.t ->
    transfer:(int -> D.t -> D.t) ->
    D.t array * D.t array
  (** [solve view ~entry ~bottom ~transfer] iterates to a fixpoint and
      returns [(block_in, block_out)].  [entry] seeds the entry block,
      [bottom] every other block; [transfer b d] pushes [d] through
      block [b].  Unreachable blocks keep [bottom].

      [edge ~src ~dst d] (default: identity) refines the value flowing
      along the CFG edge [src -> dst] before it is joined into [dst] —
      branch-condition refinement for the range analysis.

      [widen old new] (default: none) replaces a block's freshly joined
      input once the block has been visited more than a fixed threshold;
      it must return an upper bound of both arguments and may only
      strictly grow finitely often, which restores termination on
      infinite-height domains. *)
end

module Backward (D : DOMAIN) : sig
  val solve :
    ?visits:int ref ->
    Ipds_cfg.Feasibility.view ->
    exit:D.t ->
    bottom:D.t ->
    transfer:(int -> D.t -> D.t) ->
    D.t array * D.t array
  (** Returns [(block_in, block_out)]: [block_in b] holds before the first
      instruction of [b], [block_out b] after its terminator.  Blocks with
      no (surviving) successors are seeded with [exit]. *)
end
