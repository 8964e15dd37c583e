(** The observability sections of a harness JSON report.

    [metrics_json] carries only stable metrics — the deterministic
    object that must be byte-identical across job counts — while
    [runtime_json] carries the unstable ones, wall-clock timers
    included, which legitimately vary run to run. *)

val metrics_json : unit -> Ipds_obs.Json.t
(** Stable-metric snapshot: identical for [--jobs 1] and [--jobs N]. *)

val runtime_json : unit -> Ipds_obs.Json.t
(** [{"metrics":{…unstable…}}], the [*.ns] timer histograms among
    them — scheduling and wall-clock dependent, excluded from the
    determinism guarantee. *)
