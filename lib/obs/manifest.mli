(** The per-run manifest: what would be needed to reproduce this run.

    A process-global set of named fields (seed, jobs, options,
    format version, tool, targets…) that entry points fill in as they
    parse their command line.  The manifest is written as the first line
    of every JSONL event stream ({!Events.set_path}) and embedded in
    [--metrics-out] files and bench [--json] reports. *)

val set : string -> Json.t -> unit
(** Last write per field wins. *)

val set_int : string -> int -> unit
val set_string : string -> string -> unit

val to_json : unit -> Json.t
(** An object with fields sorted by name. *)

val reset : unit -> unit
(** Test seam: test_obs starts each case from a fresh manifest. *)
