(** Memory-resident variables.

    A variable names a contiguous block of one or more integer cells in
    memory (size 1 for scalars, [n] for arrays).  Variables carry a storage
    class: locals live in the active frame of their function, globals in a
    single program-wide segment.  The paper's threat model is precisely
    "non-constant memory resident data": these cells are what an attacker
    can tamper. *)

type storage =
  | Local
  | Global

type t = private {
  id : int;  (** unique program-wide *)
  name : string;
  size : int;  (** number of integer cells, [>= 1] *)
  storage : storage;
}

val make : id:int -> name:string -> size:int -> storage:storage -> t
(** Raises [Invalid_argument] if [size < 1] or [id < 0]. *)

val is_scalar : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
