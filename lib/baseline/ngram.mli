(** N-gram sequence model over event symbols — the classic
    system-call-trace anomaly detector of Forrest et al. ("A Sense of
    Self for Unix Processes"), which the paper's related-work section
    positions IPDS against.

    Training records every window of [n] consecutive symbols seen in
    benign traces; monitoring flags any window absent from that
    database.  Unlike IPDS, the model can raise false positives whenever
    training under-covers benign behaviour. *)

type t

val train : n:int -> string list list -> t
(** [train ~n traces] builds the normal-behaviour database.  Traces
    shorter than [n] contribute their full sequence as one window. *)

val n : t -> int
(** Test seam: test_baseline checks the window length a model was trained
    with. *)

val size : t -> int
(** Test seam: test_baseline checks how many distinct windows training stored.
    Distinct windows in the database. *)

val anomalies : t -> string list -> int
(** Test seam: test_baseline checks the window count behind {!flags}.  Number
    of windows of the trace absent from the database. *)

val flags : t -> string list -> bool
(** [anomalies > 0]. *)
