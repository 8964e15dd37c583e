(** Machine values with pointer provenance.

    Integers and pointers are distinct: pointers are created only by
    [Addr_of] and survive only pointer ± integer arithmetic.  Any other
    operation degrades a pointer to its numeric address (an [Int]), which
    can no longer be dereferenced.  This provenance discipline is what
    makes the compile-time points-to analysis sound against the machine:
    integer data can never be forged into a reference. *)

type pointer = {
  frame : int;  (** 0 for globals, otherwise the owning frame's id *)
  var : Ipds_mir.Var.t;
  index : int;  (** may be out of bounds; wrapped at dereference *)
}

type t =
  | Int of int
  | Ptr of pointer

val zero : t
val truthy : t -> bool
(** Test seam: test_machine checks which values branch as true. *)

val pp : Format.formatter -> t -> unit
