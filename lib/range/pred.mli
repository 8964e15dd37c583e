(** Value predicates: the sets of integers a branch direction can pin a
    value into.  Besides intervals, disequality constraints ([Ne] taken /
    [Eq] not-taken) give punctured lines, and inverse affine images can be
    empty ([Never]: the direction is impossible for any underlying
    value — only a tampered run can take it). *)

type t =
  | In of Interval.t
  | Except of int  (** every integer except this one *)
  | Never  (** no integer at all *)

val top : t
val is_top : t -> bool
val mem : int -> t -> bool
(** Test seam: test_range checks set membership of single values. *)

val subset : t -> t -> bool
(** [subset a b] — [a]'s set is contained in [b]'s ([b] subsumes [a]). *)

val shift : t -> int -> t
val neg : t -> t
val of_interval : Interval.t option -> t
(** [None] (an empty interval) becomes [Never]. *)

val equal : t -> t -> bool

val join : t -> t -> t
(** Least representable upper bound of the union. *)

val meet : t -> t -> t
(** Over-approximation of the intersection; exact except for
    [Except c /\ Except c'] with distinct constants, and [Never] exactly
    when the intersection is provably empty. *)

val widen : t -> t -> t
(** [widen old next] — interval widening under [In], top on shape
    changes; chains stabilize. *)

val pp : Format.formatter -> t -> unit
(** Test seam: test_range prints predicates in failure messages. *)
