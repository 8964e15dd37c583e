(** Branch-edge regions.

    After a conditional branch commits with a given direction, the
    instructions executed up to (and including) the *next* conditional
    branch are fully determined: a straight-line chain of blocks connected
    by unconditional jumps.  The BAT attributes actions to branch edges, so
    any store/call that may redefine a tracked variable inside an edge's
    region must contribute a SET_UN action to that edge.

    A region stops at: the next conditional branch (recorded), a
    return/halt, or — for degenerate jump-only cycles — the first repeated
    block. *)

type stop =
  | Next_branch of int  (** term iid of the following conditional branch *)
  | Exits  (** the region runs into return/halt *)
  | Loops_forever  (** jump-only cycle with no branch *)

type t = {
  instrs : int list;
      (** body instruction iids executed inside the region, in order;
          terminator iids of traversed jumps are not included *)
  stop : stop;
}

val after_edge : Ipds_mir.Func.t -> branch_iid:int -> taken:bool -> t
(** The region entered by taking the given direction of the branch.
    Raises [Invalid_argument] if [branch_iid] is not a conditional
    branch terminator. *)

val from_entry : Ipds_mir.Func.t -> t
(** The region executed from function entry to the first conditional
    branch. *)

val all_edges : Ipds_mir.Func.t -> ((int * bool) * t) list
(** Test seam: test_cfg enumerates every edge's region at once; the analysis
    asks one edge at a time.  Regions for every (branch, direction) edge of
    the function. *)
