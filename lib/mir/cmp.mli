(** Comparison operators for conditional branches. *)

type t =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

val eval : t -> int -> int -> bool
val negate : t -> t
(** [negate c] is the comparison holding exactly when [c] does not. *)

val swap : t -> t
(** [swap c] is the comparison [c'] with [eval c a b = eval c' b a]. *)

val all : t list
val to_string : t -> string
val of_string : string -> t option
(** Test seam: the MIR text oracle parses comparison names. *)
