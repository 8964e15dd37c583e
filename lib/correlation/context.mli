(** Bundled per-function analysis state shared by the correlation passes. *)

type t = {
  program : Ipds_mir.Program.t;
  func : Ipds_mir.Func.t;
  cfg : Ipds_cfg.Cfg.t;
  feas : Ipds_cfg.Feasibility.t;
      (** the feasibility view [pgraph] and [rdefs] were computed on *)
  pgraph : Ipds_cfg.Point_graph.t;
  rdefs : Ipds_dataflow.Reaching_defs.t;
  access : Ipds_alias.Access.t;
  may_def_of : Ipds_alias.Access.target array;
      (** indexed by iid; [No_target] for non-writing instructions *)
}

type program_wide = {
  prog : Ipds_mir.Program.t;
  points_to : Ipds_alias.Points_to.t;
  summaries : string -> Ipds_alias.Summary.t;
}

val prepare : ?mode:Ipds_alias.Summary.mode -> Ipds_mir.Program.t -> program_wide

val for_func :
  ?feas:Ipds_cfg.Feasibility.t -> program_wide -> Ipds_mir.Func.t -> t
(** [for_func ?feas pw func] — when [feas] is given, the point graph and
    reaching definitions are computed on the feasibility-pruned views,
    so every path-sensitivity question the analysis asks ranges over
    feasible paths only.  Default: the unpruned function. *)

val slice_fingerprint : program_wide -> Ipds_mir.Func.t -> string
(** The program-wide state one function's analysis can observe, as a
    string: its points-to slice, the summaries of its callees and the
    program-wide variable numbering.  Not a hash but the preimage;
    combined with the function body, base PC and analysis options it is
    named by the one content hash that keys per-function incremental
    caching. *)

val kills_of_cell : t -> Ipds_alias.Cell.t -> int list
(** Instruction ids that may overwrite the cell. *)
