(* The event-loop verdict server.

   One [Unix.select] reactor per [config.jobs], each owning a disjoint
   set of nonblocking connections: the accept domain distributes new
   sockets round-robin over reactor mailboxes and wakes the owner
   through its self-pipe.  Reads drive {!Protocol.scan_at} over a
   compacting per-connection buffer and hand every frame span to
   {!Session.handle_span}: [Branch_events] spans stream straight into
   the checker (no event list, no per-event allocation), rare control
   frames go through the generic decoder.  Writes never block: replies
   go through a bounded per-connection queue flushed opportunistically
   and on writability, with a global in-flight byte cap on top — when
   either bound would be exceeded the client gets one typed
   [Overloaded] error frame and the connection drains and closes.
   Backpressure, never unbounded buffering.  Admission is bounded too:
   [Unix.select] cannot watch an fd >= FD_SETSIZE, so past
   {!max_connections} live connections a new socket gets one
   [Overloaded] frame and is closed.

   Loaded systems live in one {!Ipds_parallel.Memo} bounded to
   [config.cache_slots] entries, keyed by artifact key: loads run
   outside its lock, so cold loads of distinct keys proceed in parallel
   across reactors while racing loads of one key collapse to one. *)

module Store = Ipds_artifact.Store
module Reg = Ipds_obs.Registry

(* Overload shedding depends on timing, so the counter is unstable. *)
let m_overloaded = Reg.counter ~stable:false "serve.overloaded"

(* Live connections across all reactors, kept below FD_SETSIZE (1024):
   the rest of the table holds stdio, the listener, the self-pipes
   (two per reactor) and transient store and peer fds. *)
let max_connections = 960

(* When [accept] fails for want of a descriptor (EMFILE/ENFILE) the
   pending connection keeps the listener readable, so retrying at once
   would spin a CPU until an fd frees up.  Instead the accept loop
   stops watching the listener for this long (still watching the stop
   pipe), counting each pause. *)
let accept_backoff_s = 0.05
let m_accept_backoffs = Reg.counter ~stable:false "serve.accept_backoffs"

(* Fleet artifact sharing: where this server may fetch verified
   artifacts from on a local-store miss, instead of answering
   [unknown-artifact] and forcing the client to recompile. *)
type peer_sharing = {
  peer_topology : Ipds_fleet.Topology.t;
  peer_self : int;  (** this server's own shard index (never asked) *)
  peer_backoff : Ipds_fleet.Backoff.t;
}

type config = {
  jobs : int;  (** reactor domains (≥ 1) *)
  max_frame : int;  (** payload-size limit, bytes *)
  session_timeout : float;  (** seconds a session may sit idle; 0 = none *)
  cache_slots : int;  (** loaded [System.t]s kept in the LRU (≥ 1) *)
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
  mutable in_start : int;
  mutable in_len : int;
  outq : out_chunk Queue.t;
  mutable out_bytes : int;
  mutable last_active : float;
  mutable closing : bool;  (** stop reading; close once the queue drains *)
  mutable dead : bool;  (** close and reap now *)
}

type reactor = {
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  inbox_mutex : Mutex.t;
  inbox : Unix.file_descr Queue.t;
  mutable conns : conn list;
}

type t = {
  config : config;
  store : Store.t option;
  peer_fetch : (string -> (string, Protocol.err) result) option;
  cache : (string, Ipds_core.System.t) Ipds_parallel.Memo.t;
  fd : Unix.file_descr;
  sock_path : string option;
  stop_flag : bool Atomic.t;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  reactors : reactor array;
  mutable reactor_domains : unit Domain.t array;
  mutable accept_domain : unit Domain.t option;
  inflight : int Atomic.t;  (** queued reply bytes across all connections *)
  live : int Atomic.t;  (** admitted connections not yet killed *)
  rr : int Atomic.t;
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

let rec drain_frames t conn =
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
             ~max_frame:t.config.max_frame tag conn.inbuf ~pos:payload_pos
             ~len:payload_len
         with
        | `Continue -> ()
        | `Close -> conn.closing <- true);
        if conn.in_len = 0 then conn.in_start <- 0;
        drain_frames t conn

let on_readable t conn =
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
        drain_frames t conn
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue_ := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> kill t conn
  done

(* {2 Reactor} *)

let drain_wake fd =
  let junk = Bytes.create 64 in
  let rec go () =
    match Unix.read fd junk 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let adopt t r =
  Mutex.lock r.inbox_mutex;
  let fresh = Queue.fold (fun acc fd -> fd :: acc) [] r.inbox in
  Queue.clear r.inbox;
  Mutex.unlock r.inbox_mutex;
  List.iter
    (fun fd ->
      (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
      let conn =
        {
          fd;
          session =
            Session.create ?peer_fetch:t.peer_fetch ~store:t.store
              ~cache:t.cache ();
          inbuf = Bytes.create 65536;
          in_start = 0;
          in_len = 0;
          outq = Queue.create ();
          out_bytes = 0;
          last_active = Unix.gettimeofday ();
          closing = false;
          dead = false;
        }
      in
      r.conns <- conn :: r.conns)
    fresh

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

let reactor_loop t r =
  while not (Atomic.get t.stop_flag) do
    adopt t r;
    let rds =
      r.wake_r
      :: List.filter_map
           (fun c -> if c.dead || c.closing then None else Some c.fd)
           r.conns
    in
    let wrs =
      List.filter_map
        (fun c -> if (not c.dead) && c.out_bytes > 0 then Some c.fd else None)
        r.conns
    in
    (* With no idle timeout to police, sleep long: [stop] (and new
       work) wakes the select through the self-pipe, so the period only
       bounds how often a completely idle reactor spins. *)
    let tmo = if t.config.session_timeout > 0. then 0.25 else 30. in
    (match Unix.select rds wrs [] tmo with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
    | rd, wr, _ ->
        if List.mem r.wake_r rd then drain_wake r.wake_r;
        adopt t r;
        List.iter
          (fun c -> if (not c.dead) && List.mem c.fd wr then flush_conn t c)
          r.conns;
        List.iter
          (fun c -> if (not c.dead) && List.mem c.fd rd then on_readable t c)
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
  List.iter (fun c -> kill t c) r.conns;
  r.conns <- [];
  adopt t r;
  List.iter (fun c -> kill t c) r.conns;
  r.conns <- []

(* {2 Accept loop} *)

let wake r =
  let b = Bytes.make 1 '!' in
  match Unix.write r.wake_w b 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      () (* a wake is already pending *)
  | exception Unix.Unix_error _ -> ()

let overloaded_frame =
  lazy
    (Protocol.encode_frame
       (Protocol.Error
          {
            Protocol.code = Protocol.Overloaded;
            detail = "connection limit reached; closing";
          }))

(* Past the admission cap the socket never reaches a reactor: one
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

let dispatch t cfd =
  if Atomic.fetch_and_add t.live 1 >= max_connections then begin
    Atomic.decr t.live;
    refuse cfd
  end
  else begin
    let i = Atomic.fetch_and_add t.rr 1 mod Array.length t.reactors in
    let r = t.reactors.(i) in
    Mutex.lock r.inbox_mutex;
    Queue.add cfd r.inbox;
    Mutex.unlock r.inbox_mutex;
    wake r
  end

let accept_loop t =
  let backoff = ref false in
  while not (Atomic.get t.stop_flag) do
    let watch, timeout =
      if !backoff then ([ t.stop_r ], accept_backoff_s) else ([ t.fd; t.stop_r ], -1.)
    in
    backoff := false;
    match Unix.select watch [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | rd, _, _ ->
        if List.mem t.stop_r rd then ()
        else if List.mem t.fd rd then begin
          let continue_ = ref true in
          while !continue_ do
            match Unix.accept t.fd with
            | cfd, _ -> dispatch t cfd
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                continue_ := false
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
                Reg.incr m_accept_backoffs;
                backoff := true;
                continue_ := false
            | exception Unix.Unix_error _ -> continue_ := false
          done
        end
  done

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

let nonblock_pipe () =
  let r, w = Unix.pipe () in
  (try Unix.set_nonblock r with Unix.Unix_error _ -> ());
  (try Unix.set_nonblock w with Unix.Unix_error _ -> ());
  (r, w)

let start ?(config = default_config) (addr : address) =
  (* First, so a bad [cache_slots] raises before any fd is open. *)
  let cache =
    Ipds_parallel.Memo.create ~capacity:config.cache_slots
      ~metrics_prefix:"serve.cache" ()
  in
  Protocol.ignore_sigpipe ();
  let fd, sock_path =
    match addr with
    | `Unix path ->
        claim_socket_path path;
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        (fd, Some path)
    | `Tcp port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        (fd, None)
  in
  Unix.listen fd 64;
  (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
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
          Fleet_client.create ~max_frame:config.max_frame
            ~backoff:p.peer_backoff p.peer_topology
        in
        fun key ->
          match Fleet_client.fetch_artifact ~exclude:p.peer_self fc key with
          | Ok bytes -> Ok (Bytes.to_string bytes)
          | Error e -> Error e)
      config.peers
  in
  let jobs = max 1 config.jobs in
  let reactors =
    Array.init jobs (fun _ ->
        let wake_r, wake_w = nonblock_pipe () in
        {
          wake_r;
          wake_w;
          inbox_mutex = Mutex.create ();
          inbox = Queue.create ();
          conns = [];
        })
  in
  let stop_r, stop_w = nonblock_pipe () in
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
      reactors;
      reactor_domains = [||];
      accept_domain = None;
      inflight = Atomic.make 0;
      live = Atomic.make 0;
      rr = Atomic.make 0;
    }
  in
  t.reactor_domains <-
    Array.map (fun r -> Domain.spawn (fun () -> reactor_loop t r)) reactors;
  t.accept_domain <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let port t =
  match Unix.getsockname t.fd with
  | Unix.ADDR_INET (_, port) -> Some port
  | Unix.ADDR_UNIX _ -> None

let stop t =
  if not (Atomic.exchange t.stop_flag true) then begin
    (* Self-pipes make shutdown prompt even when every loop is parked
       in a long select: the accept loop on [stop_r], each reactor on
       its wake pipe. *)
    let b = Bytes.make 1 '!' in
    (try ignore (Unix.write t.stop_w b 0 1) with Unix.Unix_error _ -> ());
    Array.iter wake t.reactors;
    (match t.accept_domain with
    | Some d ->
        Domain.join d;
        t.accept_domain <- None
    | None -> ());
    Array.iter Domain.join t.reactor_domains;
    t.reactor_domains <- [||];
    Array.iter
      (fun r ->
        close_quiet r.wake_r;
        close_quiet r.wake_w)
      t.reactors;
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
