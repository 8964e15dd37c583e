(** Dynamic execution events, the interface between the functional
    interpreter and its observers (the IPDS checker driver, the timing
    model, trace recorders). *)

type kind =
  | Alu
  | Load of { addr : int }
  | Store of { addr : int }
  | Branch of {
      taken : bool;
      target_pc : int;
    }
  | Jump of { target_pc : int }
  | Call of { callee : string }
  | Ret
  | Input_read
  | Output_write of int
  | Fault_inject of { skipped : bool }
      (** simulator-side marker that a branch fault landed on this
          instruction: [skipped = false] is a condition flip (the
          {!Branch} event that follows carries the flipped direction),
          [skipped = true] an instruction skip (no branch event commits
          at all).  Checker replay ignores it — a real victim would not
          announce its own corruption. *)

type t = {
  fname : string;
  iid : int;
  pc : int;
  kind : kind;
}

val pp : Format.formatter -> t -> unit
(** Test seam: test_machine prints events in failure messages. *)
