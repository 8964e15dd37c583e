(** Per-connection protocol logic of the verdict {!Server}: the frame
    state machine, the [serve.*] metrics, typed-error classification,
    and the one feed loop behind both [Branch_events] entry points —
    {!handle} on a decoded event list and {!handle_events_span} on a
    wire span, which never builds the list. *)

module Reg = Ipds_obs.Registry

(** Stable counters (per-session deterministic work; byte-identical
    across jobs/scheduling) — the server bumps the frame counters
    itself since framing is transport-side. *)

val m_sessions : Reg.counter
val m_frames_in : Reg.counter
val m_frames_out : Reg.counter
val m_traces : Reg.counter
val m_events : Reg.counter
val m_branches : Reg.counter
val m_alarms : Reg.counter
val m_protocol_errors : Reg.counter
val m_state_errors : Reg.counter

val m_artifact_fetches : Reg.counter
(** [Fetch_artifact] frames answered with verified artifact bytes. *)

val m_artifact_pushes : Reg.counter
(** [Push_artifact] frames accepted (stored or byte-identical dup). *)

val m_artifact_verify_rejects : Reg.counter
(** Inbound images (pushed or peer-fetched) that failed full
    verification and were rejected with [corrupt-artifact]. *)

val m_artifact_peer_loads : Reg.counter
(** Local-store misses satisfied by fetching a verified artifact from a
    fleet peer.  Unstable: depends on which shard warmed first. *)

val m_timeouts : Reg.counter
(** Unstable (timing-dependent). *)

type t

val create :
  ?peer_fetch:(string -> (string, Protocol.err) result) ->
  store:Ipds_artifact.Store.t option ->
  cache:(string, Ipds_core.System.t) Ipds_parallel.Memo.t ->
  unit ->
  t
(** Counts [serve.sessions].  [cache] holds loaded systems, shared by
    every session of a server.  [peer_fetch] is the fleet hook consulted
    on a [Load_key] local-store miss: it returns the raw container
    bytes of the key from a warm peer, which the session verifies
    ({!Ipds_artifact.Artifact.of_bytes} + {!Ipds_core.Image.validate})
    and publishes locally before serving — a cold shard warms itself
    instead of answering [unknown-artifact]. *)

val image_key : string -> string
(** The cache key of an inline [.ipds] image ("img:" ^ SHA-256 hex) —
    the server and routing clients must derive it identically, so it
    lives here. *)

val send_error : send:(Protocol.frame -> unit) -> Protocol.error_code -> string -> unit
(** Classify into the error counters and emit one [Error] frame. *)

val handle :
  t -> send:(Protocol.frame -> unit) -> Protocol.frame -> [ `Close | `Continue ]
(** The frame state machine on a decoded frame.  A [Ret]/[Branch] event
    against an empty checker stack is a typed [Bad_state] error. *)

val handle_events_span :
  t ->
  send:(Protocol.frame -> unit) ->
  max_frame:int ->
  Bytes.t ->
  pos:int ->
  len:int ->
  [ `Close | `Continue ]
(** [handle] for a CRC-validated [Branch_events] payload span, fed
    through {!Protocol.iter_branch_events} with all-or-nothing staging:
    a malformed payload mutates nothing.  Same feed loop, so the same
    replies, summaries and counters as [handle (Branch_events _)]. *)

val handle_span :
  t ->
  send:(Protocol.frame -> unit) ->
  max_frame:int ->
  int ->
  Bytes.t ->
  pos:int ->
  len:int ->
  [ `Close | `Continue ]
(** [handle_span t ~send ~max_frame tag buf ~pos ~len]: one
    CRC-validated frame span (from {!Protocol.scan_at}).
    [Branch_events] goes to {!handle_events_span}; every other tag is
    decoded and handed to {!handle}, a decode failure being one typed
    error and [`Close]. *)

val close : t -> unit
(** Flush checker counter deltas of an abandoned trace.  Idempotent. *)
