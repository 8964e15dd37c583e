(** Branch-condition semantics over affine views of a tracked value.

    A branch testing [w cmp k] where [w = scale * x + offset]
    (scale ≠ 0) pins the underlying value [x] into a predicate for each
    direction; conversely a known predicate on [x] may force the branch's
    direction.  The backward direction ({!value_pred}) is the exact
    inverse image — possibly [Never] when no integer [x] can produce the
    observed direction; the forward direction ({!apply}) is the interval
    hull, an over-approximation that is exact for scale ±1. *)

type affine = {
  scale : int;  (** non-zero *)
  offset : int;
}

val identity : affine
val compose_add : affine -> int -> affine
(** [w' = w + k] *)

val compose_sub_from : int -> affine -> affine
(** [w' = k - w] *)

val compose_neg : affine -> affine
(** Test seam: test_range checks negation composes into the affine form. *)

val compose_mul : affine -> int -> affine option
(** [w' = w * k]; [None] for [k = 0] (the result is constant, not
    affine). *)

val compose_shl : affine -> int -> affine option
(** [w' = w lsl k]; [None] for shifts that overflow practical widths. *)

val apply : affine -> Pred.t -> Pred.t
(** Forward image hull: every [scale * x + offset] with [x] in the
    predicate lies in the result. *)

val value_pred : affine -> Ipds_mir.Cmp.t -> int -> taken:bool -> Pred.t
(** [value_pred a cmp k ~taken] — the exact set of underlying values [x]
    for which the branch testing [scale * x + offset cmp k] goes in the
    given direction. *)

val forced_direction : affine -> Ipds_mir.Cmp.t -> int -> Pred.t -> bool option
(** [forced_direction a cmp k fact] — with the underlying value known to
    satisfy [fact], the direction [Some taken] the branch must take, if
    its outcome is fully determined. *)
