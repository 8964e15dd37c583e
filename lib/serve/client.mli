(** Client side of the verdict protocol: lockstep request/reply RPCs
    plus a streaming {!trace} helper whose [sink] plugs straight into
    [Ipds_machine.Interp.config.sink], so one interpreter run can be
    checked locally and remotely in the same process. *)

type address = Ipds_fleet.Topology.address
(** [`Unix path] or [`Tcp (host, port)]: one server, or one fleet shard. *)

type t

val connect : ?max_frame:int -> address -> t
(** Raises [Unix_error] if the server cannot be reached — including
    [EHOSTUNREACH] for a hostname that does not resolve.  SIGPIPE is
    set to ignored so a server vanishing mid-request surfaces as an
    RPC error, not a fatal signal. *)

val close : t -> unit
(** Idempotent. *)

val load_key : t -> string -> (bool, Protocol.err) result
(** Test seam: the serve and fleet smoke tests load stored artifacts by key;
    {!Fleet_client} routes loads itself.  Load an artifact from the server's
    store; [Ok cached] tells whether it was already resident in the server's
    LRU. *)

val load_image : t -> name:string -> Bytes.t -> (bool, Protocol.err) result
(** Ship inline [.ipds] bytes; [Ok cached] as for {!load_key}.  The
    bytes are aliased, not copied: they are encoded into the frame and
    written before the call returns and never referenced after it, so
    the caller may reuse them once it returns, but must not mutate them
    from another domain while it runs. *)

val begin_trace : t -> (unit, Protocol.err) result

val send_events :
  t ->
  Ipds_machine.Event.t list ->
  (Ipds_core.Checker.alarm list, Protocol.err) result
(** One batch; returns the alarms this batch raised, in commit order. *)

val end_trace : t -> (Protocol.summary, Protocol.err) result

val fetch_artifact : t -> string -> (Bytes.t, Protocol.err) result
(** The raw verified container bytes stored under a key on the server;
    [unknown-artifact] for absent or malformed keys, [corrupt-artifact]
    for a damaged entry.  The caller must verify the bytes itself
    before trusting them ({!Ipds_artifact.Artifact.of_bytes}) — the
    transport CRC is not a content address. *)

val push_artifact : t -> key:string -> Bytes.t -> (bool, Protocol.err) result
(** Publish container bytes under [key] on the server, which fully
    verifies them before touching its store; [Ok stored] is [false]
    when a byte-identical entry was already present.  Forged or corrupt
    images are rejected with [corrupt-artifact]; a key already held by
    different valid content is rejected with [corrupt-artifact] too
    (collision, counted server-side). *)

type trace = {
  sink : Ipds_machine.Event.t -> unit;
      (** feed interpreter events; batches are flushed on the wire every
          [batch] checker-relevant events *)
  finish :
    unit ->
    (Ipds_core.Checker.alarm list * Protocol.summary, Protocol.err) result;
      (** flush the tail, end the trace; returns every alarm of the
          whole trace in commit order.  An error anywhere mid-trace
          latches and is reported here. *)
}

val default_batch : int
(** 1024 events per wire frame: {!Protocol.default_batch}, the size
    the server's staging starts at. *)

val trace : ?batch:int -> t -> (trace, Protocol.err) result
(** Begin a trace on an already-loaded artifact.  [batch] defaults to
    {!default_batch} events per wire frame — large batches amortize
    framing over the flat checker's per-event cost.  Raises
    [Invalid_argument] if [batch < 1] (before any frame is sent). *)
