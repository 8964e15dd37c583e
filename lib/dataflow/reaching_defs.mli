(** Register reaching definitions.

    Tracks, for every program point and register, which definitions may
    have produced the register's current value.  [Entry] stands for the
    value at function entry (parameter or uninitialised).  The correlation
    analysis relies on {!unique_def} to trace branch operands back through
    affine chains: only registers with exactly one reaching definition can
    be traced.

    Solved as one bit vector per block over definition ids (each
    register's [Entry], then every defining instruction).  A query
    scans the block prefix backwards for the register's last definition
    and only then reads the block-in bits of that register's
    definitions, so it copies nothing. *)

type def =
  | Entry
  | At of int  (** iid of the defining instruction *)

module Def_set : Set.S with type elt = def

type t

val compute : ?feas:Ipds_cfg.Feasibility.t -> Ipds_cfg.Cfg.t -> t
(** [compute ?feas cfg] solves over the feasibility-pruned view when
    [feas] is given; otherwise over the raw CFG. *)

val before : t -> iid:int -> Ipds_mir.Reg.t -> Def_set.t
(** Test seam: test_dataflow and test_refine check whole definition sets; the
    analysis asks {!unique_def}.  Definitions of the register reaching the
    point just before [iid] executes. *)

val unique_def : t -> iid:int -> Ipds_mir.Reg.t -> def option
(** [Some d] iff exactly one definition reaches. *)
