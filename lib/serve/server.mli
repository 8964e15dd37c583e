(** The streaming verdict server — event-loop edition.

    Sessions speak {!Protocol} over a Unix-domain or loopback TCP
    socket: load an artifact (by store key or inline [.ipds] image),
    begin a trace, stream batched events, collect verdicts.  Instead of
    one blocking socket per client, [config.jobs] [Unix.select]
    reactors each own a disjoint set of nonblocking connections; every
    reactor watches the listener itself and accepts one socket per
    wake-up.  Reactor 0 runs on a thread of the domain that calls
    {!start}, and each other reactor on a domain of its own, so a
    default server adds no domain.  [Branch_events] frames stream
    straight into the checker (no event-list materialization); replies
    go through a bounded per-connection queue under a global in-flight
    byte cap, and a client that outruns either bound gets one typed
    [Overloaded] error frame and a drained close — backpressure, never
    unbounded buffering.  Past {!max_connections} live connections a new socket
    gets one [Overloaded] frame and is closed.  When [accept] runs out
    of descriptors (EMFILE/ENFILE) that reactor stops watching the
    listener for a fixed back-off instead of spinning, still serving its
    connections, counted in the unstable [serve.accept_backoffs].
    Loaded artifacts live in one
    {!Ipds_parallel.Memo} LRU of [config.cache_slots] entries, each as
    the image set the checker reads ({!Session.entry}); a
    [Load_image] or store load decodes only those images, never the
    code section, and a warm [Load_image] hashes nothing
    ({!Session.create} states the contract).  Each reactor reads every
    connection it owns into one shared buffer and stages their
    [Branch_events] into one {!Protocol.staging}, and between reads a
    connection keeps only the leftover of a frame split across reads,
    so an idle connection holds no input buffer.

    Robustness is the contract: malformed, oversized, truncated,
    version-skewed or out-of-sequence frames produce one typed
    [Error] reply (counted in the [serve.*] metrics) and a closed
    session — never a crash, never a wedged reactor.  Stable
    metrics ([serve.sessions], [serve.frames_in/out], [serve.traces],
    [serve.events], [serve.branches], [serve.alarms],
    [serve.protocol_errors], [serve.state_errors]) sum per-session
    deterministic work, so their totals are independent of [jobs] and
    scheduling; timeout/cache/overload counters and the batch-latency
    histogram are registered unstable. *)

type peer_sharing = {
  peer_topology : Ipds_fleet.Topology.t;
  peer_self : int;  (** this server's own shard index (never asked) *)
}
(** Fleet artifact sharing: on a [Load_key] local-store miss the server
    fetches the artifact from ring peers ({!Fleet_client.fetch_artifact}
    excluding [peer_self], on the fixed {!Ipds_fleet.Backoff} schedule),
    fully verifies it with {!Ipds_artifact.Artifact.of_bytes}, which runs
    {!Ipds_core.Image.validate} on every image once (peer bytes are
    untrusted input), publishes it to its own store and
    serves it — a cold shard warms itself instead of forcing a client
    recompile.  Tracked by the [serve.artifact_*] counters. *)

type config = {
  jobs : int;
      (** reactors (≥ 1): the first on a thread of the caller's domain,
          each other on a domain of its own *)
  max_frame : int;  (** payload-size limit, bytes *)
  session_timeout : float;  (** seconds a session may sit idle; 0 = none *)
  cache_slots : int;  (** loaded artifacts' image sets kept in the LRU (≥ 1) *)
  store_dir : string option;
      (** artifact store for [Load_key]; [None] uses the ambient store *)
  reply_queue_bytes : int;  (** per-connection reply-queue bound *)
  inflight_bytes : int;  (** global bound on queued reply bytes *)
  peers : peer_sharing option;  (** fleet peers to warm the store from *)
}

val default_config : config
(** 1 reactor, 4 MiB frames, 30 s timeout, 8 cache slots,
    ambient store, 8 MiB per-connection reply bound, 64 MiB global, no
    peer sharing. *)

val max_connections : int
(** Test seam: the serve smoke test holds exactly this many connections open.
    The admission cap: live connections across all reactors.  It stays below
    FD_SETSIZE, the largest fd [Unix.select] can watch, with room for the
    listener, the stop pipe and store fds.  Each refused socket reads one
    [Overloaded] error frame, then EOF, and counts in [serve.overloaded]. *)

type address = [ `Unix of string | `Tcp of int ]
(** [`Tcp port] binds the loopback interface; port 0 picks a free one
    (read it back with {!port}). *)

type t

val start : ?config:config -> address -> t
(** Bind, listen, start reactor 0 on a thread of the calling domain
    and spawn a domain for each of the [config.jobs − 1] others.
    SIGPIPE is set to ignored so a client disconnecting mid-reply
    surfaces as [Unix_error EPIPE] in the reactor, not a fatal signal.
    A stale socket file (one no server answers on) at a [`Unix] path is
    unlinked first; a live server's socket or a non-socket file raises
    [Unix_error (EADDRINUSE, _, _)].  Raises [Unix_error] if the
    address cannot be bound (the socket is closed first), and
    [Invalid_argument] before binding if [config.jobs < 1],
    [config.max_frame < 1] or [config.cache_slots < 1]. *)

val port : t -> int option
(** The bound TCP port ([None] for Unix-domain servers). *)

val stop : t -> unit
(** Stop promptly even mid-poll: one byte on the stop pipe wakes every
    reactor out of [select] (reactors otherwise sleep up to 30 s when
    [session_timeout] is 0), queued replies get one best-effort
    flush, every connection is closed, reactor 0's thread and then the
    other reactors' domains are joined, the socket is closed and
    unlinked.  Bounded; idempotent. *)

val with_server : ?config:config -> address -> (t -> 'a) -> 'a
(** Test seam: tests run a server for the extent of one function.  [start],
    run, [stop] (also on exception). *)
