(** The branch-correlation analysis (paper §5.1, Figure 5).

    For every branch edge (branch, direction) — and for function entry —
    the analysis derives which *facts* about memory cells hold once the
    edge commits:

    - {e test-implied} facts: the committed direction pins the tested
      value, which traces back to a load of a cell (load–load correlation)
      or matches the value a dominating store put in memory (store–load
      correlation);
    - {e region} facts: the straight-line region after the edge runs
      constant stores or stores of the just-tested value;
    - {e kills}: stores and call pseudo-stores in the region invalidate
      previously known directions (SET_UN).

    Facts become BAT actions against every branch whose outcome depends on
    the affected cell, guarded by two freshness conditions that make the
    runtime check {e sound} (zero false positives): either every path from
    the fact point to the target passes the target's anchoring load, or no
    kill can separate that load from the fact point. *)

type edge = int * bool
(** Branch terminator iid and direction. *)

type result = {
  func : Ipds_mir.Func.t;
  depends : Depend.t list;  (** branches with traceable dependencies *)
  checked : int list;
      (** BCV: branch iids that can receive an expected direction, sorted *)
  edge_actions : (edge * (int * Action.t) list) list;
      (** BAT: per committed edge, targets and actions (NC omitted) *)
  entry_actions : (int * Action.t) list;
      (** actions applied when an activation of the function starts *)
}

type precision =
  | Off  (** single pass on the unpruned CFG: the historical behaviour *)
  | Refine of { cap : int }
      (** iterate analysis and feasibility pruning to a fixpoint,
          re-running at most [cap] times per function (see {!Refine}) *)

type options = {
  store_load : bool;  (** store–load correlations (§4 scenario 1/3) *)
  load_load : bool;  (** load–load correlations (§4 scenario 2) *)
  affine_tracing : bool;
      (** trace through add/sub chains (Figure 3.c); off = direct loads only *)
  summary_mode : Ipds_alias.Summary.mode;
  precision : precision;
}

val default_options : options
(** Precision defaults to [Off]. *)

val default_refine_cap : int

val precision_on : precision
(** [Refine] with the default per-function iteration cap. *)

val options_fingerprint : options -> string
(** Canonical rendering for cache keys and content digests.  With
    precision [Off] this is byte-identical to the pre-precision
    rendering, so [--precision off] artifacts and cache keys are
    unchanged; [Refine] appends a component and misses cleanly. *)

val analyze_func :
  ?options:options ->
  ?feas:Ipds_cfg.Feasibility.t ->
  Context.program_wide ->
  Ipds_mir.Func.t ->
  result
(** The pure per-function stage: everything program-wide it consumes
    comes through the prepared {!Context.program_wide}, so distinct
    functions can be analyzed concurrently from separate domains.
    [feas] restricts every path-sensitivity query to the pruned view —
    the incremental re-run entry point the refinement loop drives. *)

val analyze_ctx : ?options:options -> Context.t -> result
(** [analyze_func] on an already-built context (avoids rebuilding the
    point graph and reaching definitions when the caller has them). *)

val static_infeasible : ?options:options -> Context.t -> (int * bool) list
(** Branch directions [(branch_iid, taken)] that no execution — benign
    or tampered — can commit: the direction's inverse image through the
    affine trace is empty, or both operands trace to constants and the
    comparison is decided.  Sorted; safe for
    {!Ipds_cfg.Feasibility.prune}. *)

val analyze_program :
  ?options:options -> Ipds_mir.Program.t -> (string * result) list
(** Analyze every defined function. *)

val actions_for : result -> edge -> (int * Action.t) list
val pp_result : Format.formatter -> result -> unit
