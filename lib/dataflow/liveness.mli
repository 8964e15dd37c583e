(** Backward register liveness (used for statistics and sanity checks;
    the correlation analysis itself reasons about memory variables). *)

type t

val compute : ?feas:Ipds_cfg.Feasibility.t -> Ipds_cfg.Cfg.t -> t
(** [compute ?feas cfg] solves over the feasibility-pruned view when
    [feas] is given; otherwise over the raw CFG. *)

val live_in : t -> int -> Ipds_mir.Reg.t -> bool
(** Test seam: test_dataflow checks the block-entry solution; the analysis
    asks {!live_before}.  [live_in t block reg] — is [reg] live at the start
    of [block]? *)

val live_before : t -> iid:int -> Ipds_mir.Reg.t -> bool
(** Is the register live just before instruction [iid]? *)
