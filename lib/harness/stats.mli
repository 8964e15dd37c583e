(** Small statistics helpers for the experiment reports.

    Aggregates of an empty sample are [None], never a silent [0.] —
    callers render "n/a" so a workload with no samples can't masquerade
    as a real data point in the tables. *)

val mean : float list -> float option

val mean_exn : float list -> float
(** Test seam: test_harness checks that an empty sample raises.  Raises
    [Invalid_argument] on an empty sample. *)

val stddev : float list -> float
(** Test seam: test_harness checks the sample deviation that {!mean_sd}
    prints.  Sample standard deviation (n-1); 0 for fewer than two samples. *)

val mean_sd : float list -> string
(** ["12.3% ± 1.1%"] formatting for fractions; ["n/a"] for no samples. *)

val minimum : float list -> float option
(** Test seam: test_harness checks the empty and non-empty cases. *)

val maximum : float list -> float option
(** Test seam: test_harness checks the empty and non-empty cases. *)
