(** The one JSON module: just enough to emit every machine-readable
    output without a new dependency — JSONL event streams, manifests,
    [--metrics-out] files, bench reports — plus a small parser so smoke
    tests can validate what was written.

    [ipds_obs] sits below every other library, so everything above it
    shares this type.  Encoding is deterministic: no hash-order
    iteration, no locale, shortest float form that round-trips. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Compact and single-line without [indent] (no newlines are ever
    emitted, so a value per line is valid JSONL); with it, pretty-printed
    with [indent] spaces per level.  Non-finite floats serialize as
    [null]. *)

val write_file : ?indent:int -> string -> t -> unit
(** [to_string ?indent] plus a trailing newline, published atomically:
    writes a unique per-process temp file next to [path], then renames
    over it, so a crash mid-write cannot leave a truncated file and
    concurrent writers to the same path can never publish a mixed one
    (last complete document wins).  The temp file is removed on
    failure. *)

exception Parse_error of string

val of_string : string -> t
(** Test seam: tests parse the reports this module writes.  Parse one JSON
    document (the whole string).  Numbers without [.], [e] or [E] parse as
    [Int], everything else as [Float]; raises {!Parse_error} on malformed
    input. *)

val member : string -> t -> t option
(** Test seam: tests read fields of the reports this module writes.  Field
    lookup on [Obj]; [None] on other constructors. *)
