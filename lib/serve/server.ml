(* The event-loop verdict server.

   [config.jobs] [Unix.select] reactors, each owning a disjoint set of
   nonblocking connections.  Reactor 0 is a thread of the domain that
   calls {!start}, so a default server ([jobs = 1]) runs on that one
   domain; reactors 1 … [jobs − 1] each get a domain of their own.
   Every reactor watches the listener and the server's stop pipe in its
   own select and accepts for itself, one socket per wake-up, so a
   burst spreads over the reactors that are awake.  Each reactor owns
   one read buffer that every connection it serves reads into, and one
   {!Protocol.staging}: reactor 0 shares its domain with the caller's
   threads, so no reactor stages through domain-local scratch.  Reads
   drive {!Protocol.scan_at} over the buffer and hand every frame span
   to {!Session.handle_span}: [Branch_events] spans are staged into the
   reactor's flat arrays and fed to the checker (no event list, no
   per-event allocation), rare control frames go through the generic
   decoder.  Between reads a connection keeps only the leftover bytes
   of a frame split across reads — none in lockstep traffic — so an
   idle connection holds no input buffer.
   Writes never block: replies go through a bounded per-connection
   queue flushed opportunistically and on writability, with a global
   in-flight byte cap on top — when either bound would be exceeded the
   client gets one typed [Overloaded] error frame and the connection
   drains and closes.
   Backpressure, never unbounded buffering.  Admission is bounded too:
   [Unix.select] cannot watch an fd >= FD_SETSIZE, so past
   {!max_connections} live connections a new socket gets one
   [Overloaded] frame and is closed.

   Loaded artifacts live in one {!Ipds_parallel.Memo} bounded to
   [config.cache_slots] entries, keyed by artifact key, as the image
   sets the checker reads ({!Session.entry}): loads run outside its
   lock, so cold loads of distinct keys proceed in parallel across
   reactors while racing loads of one key collapse to one. *)

module Store = Ipds_artifact.Store
module Reg = Ipds_obs.Registry

(* Overload shedding depends on timing, so the counter is unstable. *)
let m_overloaded = Reg.counter ~stable:false "serve.overloaded"

(* Live connections across all reactors, kept below FD_SETSIZE (1024):
   the rest of the table holds stdio, the listener, the stop pipe and
   transient store and peer fds. *)
let max_connections = 960

(* When [accept] fails for want of a descriptor (EMFILE/ENFILE) the
   pending connection keeps the listener readable, so retrying at once
   would spin a CPU until an fd frees up.  Instead the reactor that hit
   it leaves the listener out of its select for this long (still
   serving its connections and watching the stop pipe), counting each
   pause. *)
let accept_backoff_s = 0.05
let m_accept_backoffs = Reg.counter ~stable:false "serve.accept_backoffs"

(* Fleet artifact sharing: where this server may fetch verified
   artifacts from on a local-store miss, instead of answering
   [unknown-artifact] and forcing the client to recompile. *)
type peer_sharing = {
  peer_topology : Ipds_fleet.Topology.t;
  peer_self : int;  (** this server's own shard index (never asked) *)
}

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

let default_config =
  {
    jobs = 1;
    max_frame = Protocol.default_max_frame;
    session_timeout = 30.;
    cache_slots = 8;
    store_dir = None;
    reply_queue_bytes = 8 * 1024 * 1024;
    inflight_bytes = 64 * 1024 * 1024;
    peers = None;
  }

type address = [ `Unix of string | `Tcp of int ]

type out_chunk = { chunk : Bytes.t; mutable off : int }

type conn = {
  fd : Unix.file_descr;
  session : Session.t;
  mutable inbuf : Bytes.t;
      (** while the reactor reads this connection, usually its read
          buffer; between reads, the leftover of a split frame, and
          empty when there is none *)
  mutable in_start : int;
  mutable in_len : int;
  outq : out_chunk Queue.t;
  mutable out_bytes : int;
  mutable last_active : float;
  mutable closing : bool;  (** stop reading; close once the queue drains *)
  mutable dead : bool;  (** close and reap now *)
}

type reactor = {
  rbuf : Bytes.t;  (** the one read buffer of every connection below *)
  staging : Protocol.staging;
      (** the one staging of every [Branch_events] span they send *)
  mutable conns : conn list;
  mutable listen_after : float;
      (** accept back-off: the listener stays out of this reactor's
          select until then *)
}

type t = {
  config : config;
  store : Store.t option;
  peer_fetch : (string -> (Bytes.t, Protocol.err) result) option;
  cache : (string, Session.entry) Ipds_parallel.Memo.t;
  fd : Unix.file_descr;
  sock_path : string option;
  stop_flag : bool Atomic.t;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  mutable reactor_thread : Thread.t option;  (** reactor 0 *)
  mutable reactor_domains : unit Domain.t array;  (** reactors 1 … jobs − 1 *)
  inflight : int Atomic.t;  (** queued reply bytes across all connections *)
  live : int Atomic.t;  (** admitted connections not yet killed *)
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* The empty-verdicts reply — the overwhelmingly common case — is one
   shared pre-encoded frame; queued chunks are write-only, so sharing
   the bytes across connections is safe. *)
let empty_verdicts = lazy (Protocol.encode_frame (Protocol.Verdicts []))

(* {2 Connection output} *)

let release t conn n =
  conn.out_bytes <- conn.out_bytes - n;
  ignore (Atomic.fetch_and_add t.inflight (-n))

let kill t conn =
  if not conn.dead then begin
    conn.dead <- true;
    release t conn conn.out_bytes;
    Queue.clear conn.outq;
    Session.close conn.session;
    close_quiet conn.fd;
    Atomic.decr t.live
  end

let enqueue_raw t conn b =
  let len = Bytes.length b in
  Queue.add { chunk = b; off = 0 } conn.outq;
  conn.out_bytes <- conn.out_bytes + len;
  ignore (Atomic.fetch_and_add t.inflight len)

(* The backpressure bound: a reply that would overflow the connection's
   queue or the global in-flight cap is replaced by one typed
   [Overloaded] frame (allowed past the caps — it is the close reason)
   and the connection stops reading and drains. *)
let send t conn f =
  if not (conn.dead || conn.closing) then begin
    let b =
      match f with
      | Protocol.Verdicts [] -> Lazy.force empty_verdicts
      | f -> Protocol.encode_frame f
    in
    let len = Bytes.length b in
    if
      conn.out_bytes + len > t.config.reply_queue_bytes
      || Atomic.get t.inflight + len > t.config.inflight_bytes
    then begin
      Reg.incr m_overloaded;
      Reg.incr Session.m_frames_out;
      enqueue_raw t conn
        (Protocol.encode_frame
           (Protocol.Error
              {
                Protocol.code = Protocol.Overloaded;
                detail = "reply queue bound exceeded; closing";
              }));
      conn.closing <- true
    end
    else begin
      Reg.incr Session.m_frames_out;
      enqueue_raw t conn b
    end
  end

let rec flush_conn t conn =
  if not conn.dead then
    match Queue.peek_opt conn.outq with
    | None -> if conn.closing then kill t conn
    | Some entry -> (
        let remaining = Bytes.length entry.chunk - entry.off in
        match Unix.single_write conn.fd entry.chunk entry.off remaining with
        | n ->
            entry.off <- entry.off + n;
            release t conn n;
            if entry.off = Bytes.length entry.chunk then begin
              ignore (Queue.pop conn.outq);
              flush_conn t conn
            end
            (* partial write: the socket buffer is full, wait for
               writability *)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_conn t conn
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ()
        | exception Unix.Unix_error _ -> kill t conn)

(* {2 Connection input} *)

(* Make [need] bytes addressable from [in_start] (compact, then grow).
   [scan_at] bounds [need] by [max_frame] + framing overhead — an
   oversized length field is rejected from the header alone, so the
   buffer never grows past the configured limit. *)
let ensure_capacity conn need =
  if conn.in_start > 0 && conn.in_start + need > Bytes.length conn.inbuf then begin
    Bytes.blit conn.inbuf conn.in_start conn.inbuf 0 conn.in_len;
    conn.in_start <- 0
  end;
  if need > Bytes.length conn.inbuf then begin
    let bigger = Bytes.create (max need (2 * Bytes.length conn.inbuf)) in
    Bytes.blit conn.inbuf conn.in_start bigger 0 conn.in_len;
    conn.in_start <- 0;
    conn.inbuf <- bigger
  end

let rec drain_frames t r conn =
  if not (conn.dead || conn.closing) then
    match
      Protocol.scan_at ~max_frame:t.config.max_frame conn.inbuf
        ~pos:conn.in_start ~len:conn.in_len
    with
    | Protocol.Scan_need need -> ensure_capacity conn need
    | Protocol.Scan_fail e ->
        Session.send_error ~send:(send t conn) e.Protocol.code e.Protocol.detail;
        conn.closing <- true
    | Protocol.Scan_frame { tag; payload_pos; payload_len; next } ->
        Reg.incr Session.m_frames_in;
        let consumed = next - conn.in_start in
        (* Advance past the frame before handling it; the payload span
           stays valid because the buffer is only compacted on the next
           [Scan_need], after the handler returns. *)
        conn.in_start <- next;
        conn.in_len <- conn.in_len - consumed;
        (match
           Session.handle_span conn.session ~send:(send t conn)
             ~max_frame:t.config.max_frame ~staging:r.staging tag conn.inbuf
             ~pos:payload_pos ~len:payload_len
         with
        | `Continue -> ()
        | `Close -> conn.closing <- true);
        if conn.in_len = 0 then conn.in_start <- 0;
        drain_frames t r conn

(* A connection's input moves into the reactor's buffer for the length
   of one read pass, and only a split frame's leftover moves back out.
   A leftover at least as large as the reactor buffer is already in a
   buffer grown for its frame, which the pass then reads into directly,
   so a large frame arriving in pieces is copied a bounded number of
   times. *)
let take_input r conn =
  if conn.in_len < Bytes.length r.rbuf then begin
    Bytes.blit conn.inbuf conn.in_start r.rbuf 0 conn.in_len;
    conn.inbuf <- r.rbuf;
    conn.in_start <- 0
  end

let release_input r conn =
  if conn.in_len = 0 || conn.dead || conn.closing then begin
    conn.inbuf <- Bytes.empty;
    conn.in_start <- 0;
    conn.in_len <- 0
  end
  else if conn.inbuf == r.rbuf then begin
    conn.inbuf <- Bytes.sub r.rbuf conn.in_start conn.in_len;
    conn.in_start <- 0
  end

let on_readable t r conn =
  take_input r conn;
  (* Read until EAGAIN (or a modest per-wake budget, for fairness),
     draining complete frames as they appear. *)
  let budget = ref (256 * 1024) in
  let continue_ = ref true in
  while (not (conn.dead || conn.closing)) && !continue_ && !budget > 0 do
    if conn.in_start + conn.in_len = Bytes.length conn.inbuf then
      ensure_capacity conn (conn.in_len + 1);
    let off = conn.in_start + conn.in_len in
    let room = Bytes.length conn.inbuf - off in
    match Unix.read conn.fd conn.inbuf off room with
    | 0 ->
        (* EOF.  Mid-frame bytes left in the buffer are a truncated
           stream — same typed error as the blocking reader. *)
        continue_ := false;
        if conn.in_len > 0 then
          Session.send_error ~send:(send t conn) Protocol.Truncated
            "connection closed mid-frame";
        conn.closing <- true
    | n ->
        conn.last_active <- Unix.gettimeofday ();
        budget := !budget - n;
        conn.in_len <- conn.in_len + n;
        drain_frames t r conn
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue_ := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> kill t conn
  done;
  release_input r conn

(* {2 Reactor} *)

(* The connection of a freshly accepted socket. *)
let adopt t fd =
  (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
  {
    fd;
    session =
      Session.create ?peer_fetch:t.peer_fetch ~store:t.store ~cache:t.cache ();
    inbuf = Bytes.empty;
    in_start = 0;
    in_len = 0;
    outq = Queue.create ();
    out_bytes = 0;
    last_active = Unix.gettimeofday ();
    closing = false;
    dead = false;
  }

let overloaded_frame =
  lazy
    (Protocol.encode_frame
       (Protocol.Error
          {
            Protocol.code = Protocol.Overloaded;
            detail = "connection limit reached; closing";
          }))

(* Past the admission cap the socket never joins a reactor: one
   best-effort [Overloaded] frame (it fits an empty socket buffer), then
   close. *)
let refuse cfd =
  Reg.incr m_overloaded;
  (try
     Unix.set_nonblock cfd;
     let b = Lazy.force overloaded_frame in
     ignore (Unix.single_write cfd b 0 (Bytes.length b))
   with Unix.Unix_error _ -> ());
  close_quiet cfd

(* One socket per wake-up.  Every reactor watching the listener wakes
   for a pending connection; one wins it and the others see EAGAIN,
   as they do after EINTR or a connection aborted before [accept]: the
   next wake-up retries. *)
let accept_one t r =
  match Unix.accept t.fd with
  | cfd, _ ->
      if Atomic.fetch_and_add t.live 1 >= max_connections then begin
        Atomic.decr t.live;
        refuse cfd
      end
      else r.conns <- adopt t cfd :: r.conns
  | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
      Reg.incr m_accept_backoffs;
      r.listen_after <- Unix.gettimeofday () +. accept_backoff_s
  | exception Unix.Unix_error _ -> ()

let scan_timeouts t r =
  if t.config.session_timeout > 0. then begin
    let now = Unix.gettimeofday () in
    List.iter
      (fun conn ->
        if
          (not conn.dead)
          && now -. conn.last_active > t.config.session_timeout
        then
          if conn.closing then kill t conn
          else begin
            Session.send_error ~send:(send t conn) Protocol.Timeout
              "session timed out waiting for a frame";
            conn.closing <- true
          end)
      r.conns
  end

let reactor_loop t =
  let r =
    {
      rbuf = Bytes.create 65536;
      staging = Protocol.staging ();
      conns = [];
      listen_after = 0.;
    }
  in
  while not (Atomic.get t.stop_flag) do
    let rds =
      t.stop_r
      :: List.filter_map
           (fun c -> if c.dead || c.closing then None else Some c.fd)
           r.conns
    in
    let wrs =
      List.filter_map
        (fun c -> if (not c.dead) && c.out_bytes > 0 then Some c.fd else None)
        r.conns
    in
    (* With no idle timeout to police, sleep long: [stop] wakes the
       select through the stop pipe, so the period only bounds how often
       a completely idle reactor spins. *)
    let tmo = if t.config.session_timeout > 0. then 0.25 else 30. in
    let backoff_left = r.listen_after -. Unix.gettimeofday () in
    let rds, tmo =
      if backoff_left > 0. then (rds, Float.min tmo backoff_left)
      else (t.fd :: rds, tmo)
    in
    (match Unix.select rds wrs [] tmo with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
    | rd, wr, _ ->
        (* Before any connection is killed in this pass, so the new fd
           cannot reuse a number [rd] or [wr] holds. *)
        if List.mem t.fd rd then accept_one t r;
        List.iter
          (fun c -> if (not c.dead) && List.mem c.fd wr then flush_conn t c)
          r.conns;
        List.iter
          (fun c -> if (not c.dead) && List.mem c.fd rd then on_readable t r c)
          r.conns;
        (* Optimistic flush: most replies fit the socket buffer and
           never wait for a writability round-trip. *)
        List.iter
          (fun c -> if (not c.dead) && c.out_bytes > 0 then flush_conn t c)
          r.conns);
    scan_timeouts t r;
    r.conns <-
      List.filter
        (fun c ->
          if c.dead then false
          else if c.closing && Queue.is_empty c.outq then begin
            kill t c;
            false
          end
          else true)
        r.conns
  done;
  (* Shutdown: one best-effort flush so already-queued replies reach
     well-behaved clients, then close everything. *)
  List.iter (fun c -> flush_conn t c) r.conns;
  List.iter (fun c -> kill t c) r.conns

(* {2 Lifecycle} *)

(* Reclaim [path] for our listener, but only if it holds a *stale*
   socket: a non-socket file is someone else's data and a socket a
   connect succeeds on is a live server — unlinking either would
   silently hijack it, so both raise [EADDRINUSE] instead. *)
let claim_socket_path path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error _ -> false
      in
      close_quiet probe;
      if live then raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path));
      (try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* The nonblocking listener: several reactors may wake for one pending
   connection, and the losers must not block in [accept].  A failed
   bind or listen closes the socket before re-raising. *)
let listen_on (addr : address) =
  let domain, sockaddr =
    match addr with
    | `Unix path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | `Tcp port -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  try
    if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd sockaddr;
    Unix.listen fd 64;
    Unix.set_nonblock fd;
    fd
  with e ->
    close_quiet fd;
    raise e

let start ?(config = default_config) (addr : address) =
  (* First, so a bad [jobs] or [cache_slots] raises before any fd is
     open. *)
  if config.jobs < 1 then invalid_arg "Server.start: jobs must be >= 1";
  let cache =
    Ipds_parallel.Memo.create ~capacity:config.cache_slots
      ~metrics_prefix:"serve.cache" ()
  in
  Protocol.ignore_sigpipe ();
  let sock_path =
    match addr with
    | `Unix path ->
        claim_socket_path path;
        Some path
    | `Tcp _ -> None
  in
  let fd = listen_on addr in
  let stop_r, stop_w =
    try Unix.pipe ~cloexec:true ()
    with e ->
      close_quiet fd;
      raise e
  in
  let store =
    match config.store_dir with
    | Some dir -> Some (Store.create ~dir)
    | None -> Store.ambient ()
  in
  (* Built once per server: the fleet client's ring agrees with every
     other shard's by construction (same topology).  The fetch runs
     inside the reactor handling the Load_key — blocking, but strictly
     on the cold-miss path, where the alternative is a client-side
     recompile costing far more. *)
  let peer_fetch =
    Option.map
      (fun p ->
        let fc =
          Fleet_client.create ~max_frame:config.max_frame p.peer_topology
        in
        Fleet_client.fetch_artifact ~exclude:p.peer_self fc)
      config.peers
  in
  let t =
    {
      config;
      store;
      peer_fetch;
      cache;
      fd;
      sock_path;
      stop_flag = Atomic.make false;
      stop_r;
      stop_w;
      reactor_thread = None;
      reactor_domains = [||];
      inflight = Atomic.make 0;
      live = Atomic.make 0;
    }
  in
  t.reactor_thread <- Some (Thread.create reactor_loop t);
  t.reactor_domains <-
    Array.init (config.jobs - 1) (fun _ -> Domain.spawn (fun () -> reactor_loop t));
  t

let port t =
  match Unix.getsockname t.fd with
  | Unix.ADDR_INET (_, port) -> Some port
  | Unix.ADDR_UNIX _ -> None

let stop t =
  if not (Atomic.exchange t.stop_flag true) then begin
    (* One byte nobody reads keeps the stop pipe readable, so it wakes
       every reactor, also one parked in a long select. *)
    (try ignore (Unix.write t.stop_w (Bytes.make 1 '!') 0 1)
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.reactor_thread;
    t.reactor_thread <- None;
    Array.iter Domain.join t.reactor_domains;
    t.reactor_domains <- [||];
    close_quiet t.stop_r;
    close_quiet t.stop_w;
    close_quiet t.fd;
    match t.sock_path with
    | Some p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
    | None -> ()
  end

let with_server ?config addr f =
  let t = start ?config addr in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)
