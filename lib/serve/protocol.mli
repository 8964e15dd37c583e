(** The verdict-server wire format: length-prefixed binary frames with a
    versioned magic and a CRC-32 trailer, payloads bit-packed with
    {!Ipds_core.Bitstream} — the same codec as the [.ipds] tables, for
    writing and for reading (readers run over the payload span in the
    receive buffer) — except the event bits of a [Branch_events]
    payload, which two C kernels pack and unpack in the same layout.

    Frame layout (integers little-endian):
    {v
    0    4   magic "IPSV"
    4    1   protocol version
    5    1   frame tag
    6    4   payload length (u32)
    10   n   payload
    10+n 4   CRC-32 of bytes [0, 10+n)
    v}

    Decoding never raises: every way a frame can be damaged maps to a
    typed {!error_code}.  Magic and version are checked before the CRC
    (wrong-protocol streams get a precise error); the CRC covers the
    header too, so a flipped bit anywhere in a frame — including its
    length field — is detected.

    Version 2 changed only the [Branch_events] payload; every other
    frame kind keeps its version-1 payload bytes.  A [Branch_events]
    payload carries only the checker's call/ret/branch stream (the
    committed-branch interface of the paper's §5):
    {v
    varint      event count n
    varint      callee-name count k, then k × (varint length, bytes)
    n × event   2-bit op: 0 call, 1 ret, 2 branch taken, 3 not taken
                call:   varint index into the names
                branch: zigzag varint of pc − previous branch pc
                        (0 before the first), modulo 2^63
    v}
    A varint is 7-bit groups, low first, each in an 8-bit field whose
    top bit marks a following group; at most nine groups.  The encoder
    drops every other event kind, so a decoded event is in the wire
    normal form: [fname = ""], [iid = 0], [target_pc = 0], and
    [pc = 0] except on a branch. *)

val magic : string
(** Test seam: test_serve forges frames byte by byte. *)

val version : int
(** Test seam: tests stamp a stale version on an otherwise valid frame. *)

val header_bytes : int
(** Test seam: tests forge and edit frames at known offsets.  Bytes before the
    payload (magic + version + tag + length). *)

val trailer_bytes : int
(** Test seam: tests forge and edit frames at known offsets.  The CRC-32
    trailer. *)

val default_max_frame : int
(** Default payload-size limit (4 MiB). *)

type error_code =
  | Bad_magic
  | Bad_version
  | Bad_crc
  | Oversized
  | Truncated
  | Unknown_frame
  | Malformed  (** CRC-valid payload that does not parse *)
  | Bad_state  (** well-formed frame at the wrong point of the session *)
  | Unknown_artifact
  | Corrupt_artifact
  | Timeout
  | Server_error
  | Overloaded
      (** the server's bounded reply queue or global in-flight cap was
          exceeded; the connection is closed after this frame *)
  | Unavailable  (** a fleet shard is down / unreachable *)

type err = { code : error_code; detail : string }

val error_code_to_string : error_code -> string

type summary = { total_events : int; total_branches : int; total_alarms : int }

type frame =
  | Load_key of string  (** client → server: load from the artifact store *)
  | Load_image of { name : string; image : string }
      (** client → server: inline [.ipds] bytes *)
  | Begin_trace
  | Branch_events of Ipds_machine.Event.t list
  | End_trace
  | Fetch_artifact of string
      (** client → server: the raw container bytes stored under this
          key — how a cold shard warms itself from a peer *)
  | Push_artifact of { key : string; image : string }
      (** client → server: store these container bytes under [key];
          the image is untrusted and fully verified before publish *)
  | Loaded of { name : string; cached : bool }
  | Trace_started
  | Verdicts of Ipds_core.Checker.alarm list
      (** alarms newly raised by the preceding [Branch_events] batch *)
  | Trace_summary of summary
  | Artifact_data of { key : string; image : string }
      (** reply to [Fetch_artifact]: verified container bytes *)
  | Artifact_pushed of { key : string; stored : bool }
      (** reply to [Push_artifact]; [stored = false] means a
          byte-identical entry was already present *)
  | Error of err

val verdict_to_string : Ipds_core.Checker.alarm -> string
(** Canonical one-line rendering, used by the remote-vs-local
    byte-identity assertions. *)

(** {2 Frame codec} *)

val encode_frame : frame -> Bytes.t

type decoded =
  | Frame of frame * int  (** decoded frame, offset just past it *)
  | Need_more of int  (** at least this many bytes from [pos] required *)
  | Fail of err

val decode_at : ?max_frame:int -> Bytes.t -> pos:int -> len:int -> decoded
(** Decode one frame from [buf[pos, pos+len)].  Never raises. *)

val decode_string : ?max_frame:int -> string -> (frame list, err) result
(** Test seam: tests decode a whole byte stream at once; the server scans
    spans with {!scan_at}.  Decode a complete byte stream; a stream ending
    mid-frame is [Error {code = Truncated; _}].  Never raises. *)

(** {2 Incremental scanning and streaming batch decode}

    The event-loop server separates framing from payload decode: it
    {!scan_at}s its read buffer (header + CRC validation only), then
    either decodes a [Branch_events] span into a flat {!batch} with
    {!stage} — no event list, no per-event records — and feeds
    the checker from it, or falls back to {!decode_span} for the rare
    control frames. *)

type scanned =
  | Scan_frame of {
      tag : int;
      payload_pos : int;  (** absolute offset of the payload in [buf] *)
      payload_len : int;
      next : int;  (** absolute offset just past the frame *)
    }
  | Scan_need of int  (** at least this many bytes from [pos] required *)
  | Scan_fail of err

val scan_at : ?max_frame:int -> Bytes.t -> pos:int -> len:int -> scanned
(** Validate one frame's header and CRC in [buf[pos, pos+len)] without
    decoding the payload.  Never raises; fails exactly when
    {!decode_at} would fail before payload decode. *)

val decode_span :
  ?max_frame:int -> int -> Bytes.t -> pos:int -> len:int -> (frame, err) result
(** Decode a CRC-validated payload span (from {!Scan_frame}) into a
    frame.  Never raises. *)

val branch_events_tag : int

exception Malformed_payload of string

(** {3 Decoded batches}

    The one [Branch_events] decoder fills a flat batch: no event
    records, no per-event closure.  The server stages every span
    through its reactor's {!staging}; {!iter_branch_events} and the
    [Branch_events] list that {!decode_span} returns are views of the
    same decode. *)

type batch = {
  mutable ev : int array;
      (** event [i]'s op at [2i] (0 call, 1 ret, 2 branch taken, 3 not
          taken), its argument at [2i + 1]: an index into [names] for a
          call, the pc for a branch, 0 for a ret *)
  mutable n : int;  (** events decoded *)
  mutable names : string array;  (** the callee names, [k] of them *)
  mutable k : int;
}

val default_batch : int
(** 1024: the events a client sends per frame by default, and the
    events a {!staging} holds from the start. *)

val staging_keep : int
(** Test seam: test_serve sizes a batch past the bound a staging keeps.  [4 ×
    default_batch].  A staging batch grown past this many events or names is
    not kept once it has been decoded into. *)

type staging
(** One batch that every span staged through it is decoded into, and
    the rule that keeps it small between spans.  A server reactor owns
    one, as it owns its read buffer. *)

val staging : unit -> staging
(** A fresh staging of {!default_batch} events. *)

val stage : staging -> Bytes.t -> pos:int -> len:int -> batch
(** Decode one [Branch_events] payload span into the staging's batch
    and return it.  The batch stays valid until the next decode into
    this staging, so whoever reads it must not stage another span
    first.  It grows to fit the payload's counts, which are bounded by
    the span's bits before any count-sized allocation, so it reaches
    at most 2 words per 2 payload bits.  If this decode grew it past
    {!staging_keep} events or names, the staging gets a fresh batch of
    {!default_batch} events for its next decode, and the big one is
    garbage once the caller drops it.

    Raises {!Ipds_core.Bitstream.Past_end} on a short payload and
    {!Malformed_payload} for a bad count or length, a callee index
    outside the name table or a varint over nine groups — the first of
    these in payload order.  After a raise the batch holds no events.

    Measured on a recorded 1 128-event telnetd batch (2-vCPU Xeon VM
    with PCLMULQDQ, one pinned CPU, median of 15 rounds of 400 calls,
    three runs alternating with the OCaml bit loops these kernels
    replaced): 4.9–5.2 ns per event through {!stage} against 8.8–9.4,
    10–11 ns through {!iter_branch_events} with empty callbacks against
    14–15, and {!encode_frame} of the batch, CRC included, 10.5–11 ns
    per event against 19–20. *)

val staged_capacity : staging -> int
(** Test seam: test_serve checks a staging shrinks back after an oversized
    batch.  Events the staging's batch holds now. *)

val staging_capacity : unit -> int
(** Test seam: test_serve checks the calling domain's staging shrinks back
    after an oversized batch.  Events the calling domain's staging batch holds
    now. *)

val iter_branch_events :
  Bytes.t ->
  pos:int ->
  len:int ->
  on_call:(string -> unit) ->
  on_ret:(unit -> unit) ->
  on_branch:(pc:int -> taken:bool -> unit) ->
  on_other:(unit -> unit) ->
  int
(** Decode one [Branch_events] payload span with {!stage} into the
    calling domain's own staging, shared by every thread of the domain,
    then hand its events to the callbacks in order; returns the event
    count.  No callback runs unless the whole span decodes, and no
    callback may decode a span on the same domain.  [on_other] is never
    called (v2 carries no other kind).  Raises as {!stage}.  The server
    never decodes through this, since its first reactor shares a domain
    with the caller's threads. *)

(** {2 Socket transport} *)

val ignore_sigpipe : unit -> unit
(** Set SIGPIPE to ignored so a write to a disconnected peer raises
    [Unix_error (EPIPE, _, _)] instead of killing the process.  Called
    by {!Server.start} and {!Client.connect}; idempotent, a no-op on
    platforms without SIGPIPE. *)

val write_all : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** Write [len] bytes from [pos] (handles partial writes and EINTR).
    Raises [Unix_error] on IO failure. *)

val output_frame : Unix.file_descr -> frame -> unit
(** Write a whole frame (handles partial writes).  Raises [Unix_error]
    on IO failure — callers own the error policy for their peer. *)

type reader

val reader : ?max_frame:int -> Unix.file_descr -> reader
(** A buffered frame reader over a socket. *)

type input = In_frame of frame | In_eof | In_error of err

val input_frame : reader -> input
(** Blocking read of the next frame.  EOF between frames is [In_eof];
    EOF mid-frame is a [Truncated] error; a receive timeout configured
    with [SO_RCVTIMEO] surfaces as a [Timeout] error.  Never raises. *)
