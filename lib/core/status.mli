(** Branch Status Vector entries: the expected direction of a branch's
    next dynamic instance (2 bits in hardware). *)

type t =
  | Taken
  | Not_taken
  | Unknown

val matches : t -> bool -> bool
(** Test seam: test_core and the checker oracle compare a direction with an
    expected status; the flat checker compares packed codes.  [matches
    expected actual] — [Unknown] matches any direction. *)

val of_action : Ipds_correlation.Action.t -> t

val to_code : t -> int
(** 2-bit packed code: [Unknown] = 0 (so zero-filled = all-unknown),
    [Taken] = 1, [Not_taken] = 2.  This is the flat-image BSV encoding,
    distinct from the wire action codes in {!Encode}. *)

val of_code : int -> t
(** Inverse of {!to_code}; unassigned codes decode to [Unknown]. *)

val pp : Format.formatter -> t -> unit
val to_char : t -> char
