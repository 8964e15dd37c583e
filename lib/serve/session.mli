(** Per-connection protocol logic of the verdict {!Server}: the frame
    state machine, the [serve.*] metrics, typed-error classification,
    and the feed loop behind {!handle_events_span}, which checks a
    [Branch_events] batch straight from its wire span without building
    the event list. *)

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

val m_call_depth_refusals : Reg.counter
(** [Branch_events] batches refused with [bad-state] because a call
    would push the checker past {!Ipds_machine.Interp.max_call_depth}
    frames; the session closes.  Bounds a session's checker stack. *)

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

val m_image_digest_mismatches : Reg.counter
(** [Load_image] frames whose header digest named a cached entry but
    whose bytes differed from it; each was decoded and verified on its
    own.  Unstable: whether an entry is resident depends on timing. *)

val m_timeouts : Reg.counter
(** Unstable (timing-dependent). *)

type t

type images = (string, Ipds_core.Image.t) Hashtbl.t
(** What a session checks against: the flat image of each function of
    one loaded artifact, by name.  Built once per load and only read
    after that, so one set is shared by every session and reactor. *)

type entry
(** A cache entry: an image set, plus, for an inline image, the exact
    container bytes it was verified from. *)

val create :
  ?peer_fetch:(string -> (Bytes.t, Protocol.err) result) ->
  store:Ipds_artifact.Store.t option ->
  cache:(string, entry) Ipds_parallel.Memo.t ->
  unit ->
  t
(** Counts [serve.sessions].  [cache] holds the image sets of loaded
    artifacts, shared by every session of a server and keyed by
    {!image_key} for [Load_image] and by the store key for [Load_key].
    Every load path ends in an image set: [Load_image] and a local
    store hit decode only the checker's sections
    ({!Ipds_artifact.Artifact.images_of_bytes}).

    The [Load_image] contract: a miss runs that decode, whose check
    of the body against the header digest is the load's one SHA-256,
    and caches the image set with the verified payload.  A hit hashes
    nothing: it is served ([cached = true]) only when the frame's bytes
    are [String.equal] to the stored payload.  Other bytes under the
    same header digest are decoded and verified on their own, served
    uncached ([cached = false]) or refused as [corrupt-artifact], and
    counted in {!m_image_digest_mismatches}; they never get another
    image's tables.  A payload shorter than the container header has no
    key and goes straight to the decode, which refuses it.  [peer_fetch] is the
    fleet hook consulted on a [Load_key] local-store miss: it returns
    the raw container bytes of the key from a warm peer.  Those bytes
    are published to the local store, so the session first verifies
    them in full with {!Ipds_artifact.Artifact.of_bytes}, whose every
    image passes {!Ipds_core.Image.validate} once, as it does a
    [Push_artifact]; a cold
    shard then warms itself instead of answering [unknown-artifact]. *)

val image_key : string -> string option
(** The cache key of an inline [.ipds] image: "img:" ^ the hex of the
    SHA-256 its {!Ipds_artifact.Object_file} header claims for the
    body, read at offset 16 and not recomputed, so deriving it costs no
    hash.  [None] for a payload shorter than the header.  The server
    and routing clients must derive it identically, so it lives here. *)

val send_error : send:(Protocol.frame -> unit) -> Protocol.error_code -> string -> unit
(** Classify into the error counters and emit one [Error] frame. *)

val handle :
  t -> send:(Protocol.frame -> unit) -> Protocol.frame -> [ `Close | `Continue ]
(** The frame state machine on a decoded frame.  A decoded
    [Branch_events] is a typed [Bad_state] error: batches go through
    {!handle_events_span}. *)

val handle_events_span :
  t ->
  send:(Protocol.frame -> unit) ->
  staging:Protocol.staging ->
  Bytes.t ->
  pos:int ->
  len:int ->
  [ `Close | `Continue ]
(** One CRC-validated [Branch_events] payload span, staged whole into
    [staging] by {!Protocol.stage} and then fed: a malformed payload
    mutates nothing.  The server passes the staging of the reactor
    that read the span.  Counts only call/ret/branch
    events, the kinds the wire carries.  A [Ret]/[Branch] event against
    an empty checker stack, or a call that would nest deeper than
    {!Ipds_machine.Interp.max_call_depth}, is a typed [Bad_state]
    error and closes the session. *)

val handle_span :
  t ->
  send:(Protocol.frame -> unit) ->
  max_frame:int ->
  staging:Protocol.staging ->
  int ->
  Bytes.t ->
  pos:int ->
  len:int ->
  [ `Close | `Continue ]
(** [handle_span t ~send ~max_frame ~staging tag buf ~pos ~len]: one
    CRC-validated frame span (from {!Protocol.scan_at}).
    [Branch_events] goes to {!handle_events_span} with [staging]; every
    other tag is decoded and handed to {!handle}, a decode failure being
    one typed error and [`Close]. *)

val close : t -> unit
(** Flush checker counter deltas of an abandoned trace.  Idempotent. *)
