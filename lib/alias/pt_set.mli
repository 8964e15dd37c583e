(** Points-to sets: what a register's pointer value may reference.

    Elements are variables (from address-of), formal-parameter pointees
    (opaque caller memory) and "unknown" (values laundered through defined
    calls or loaded pointer stores). *)

module Int_set : Set.S with type elt = int

type t = {
  vars : Ipds_mir.Var.Set.t;
  params : Int_set.t;  (** formal parameter positions *)
  unknown : bool;
}

val empty : t
val unknown : t
val of_var : Ipds_mir.Var.t -> t
val of_param : int -> t
val union : t -> t -> t
val equal : t -> t -> bool
val is_empty : t -> bool
(** Test seam: test_alias checks loads of plain data and the empty set. *)

val subsumes_anything : t -> bool
(** Test seam: test_alias checks which sets count as wildcards; {!Access}
    decides the same inline.  True when a dereference through this set
    may touch arbitrary address-taken memory ([unknown] or any parameter
    pointee). *)

val render : Buffer.t -> t -> unit
(** Appends the canonical digest-stable rendering (variable ids, sorted):
    ["v[ids]p[positions]"] and ['?'] when [unknown], else ['.']. *)

val add_ints : Buffer.t -> Int_set.t -> unit
(** Appends the elements in increasing order, comma-separated. *)

val add_var_ids : Buffer.t -> Ipds_mir.Var.Set.t -> unit
(** Appends the variables' ids in set order, comma-separated. *)
