(** Binary arithmetic/logical operators with total evaluation semantics.

    Division and remainder by zero evaluate to 0, which keeps the machine
    semantics total — important for property tests that execute randomly
    generated programs. *)

type t =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr

val eval : t -> int -> int -> int
val all : t list
val to_string : t -> string
val of_string : string -> t option
(** Test seam: test_mir and the MIR text oracle parse operator names. *)
