(* The traced run's client: the same frames [Ipds_serve.Client] sends,
   driven through [Protocol.encode_frame] / [write_all] / [reader] /
   [input_frame] so each round trip splits into encode, write, wait
   and reply decode.  [replay] then redoes the server's share of the
   wait in this process on the same bytes — scan/CRC + decode, the
   checker, SHA-256 and artifact decode of a pushed image, reply
   encode — so the wait itself can be attributed. *)

module P = Ipds_serve.Protocol
module S = Ipds_core.System

type conn = { fd : Unix.file_descr; reader : P.reader }

let connect sock =
  Spans.span "session.connect" (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      { fd; reader = P.reader fd })

let close c = Spans.span "session.close" (fun () -> Unix.close c.fd)

(* One lockstep request: what was sent and what came back. *)
type exchange = { request : P.frame; bytes : Bytes.t; reply : P.frame }

(* A reply slower than this means the server child is wedged. *)
let reply_timeout_s = 30.

let rpc c request =
  Spans.span "rpc" (fun () ->
      let bytes = Spans.span "wire.encode" (fun () -> P.encode_frame request) in
      Spans.span "wire.write" (fun () ->
          P.write_all c.fd bytes 0 (Bytes.length bytes));
      let t0 = Common.now () in
      let rec wait () =
        let left = t0 +. reply_timeout_s -. Common.now () in
        if left <= 0. then
          Common.fail "no reply from the server child within %g s" reply_timeout_s;
        match Unix.select [ c.fd ] [] [] left with
        | [], _, _ -> wait ()
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      wait ();
      Spans.record "wire.wait" ~start:t0 ~stop:(Common.now ());
      let reply =
        match Spans.span "wire.reply" (fun () -> P.input_frame c.reader) with
        | P.In_frame f -> f
        | P.In_eof -> P.Error { P.code = P.Truncated; detail = "server closed" }
        | P.In_error e -> P.Error e
      in
      { request; bytes; reply })

(* The server's work for one exchange, redone here on the same bytes.
   [checker] is the session's local replay checker.  A [Load_image]
   miss decodes the image but does not validate it: the server
   verifies only pushed and peer artifacts. *)
let replay ~checker ~system x =
  let len = Bytes.length x.bytes in
  (match x.request with
  | P.Branch_events evs ->
      Spans.span "server.scan_decode" (fun () ->
          match P.scan_at x.bytes ~pos:0 ~len with
          | P.Scan_frame { payload_pos; payload_len; _ } ->
              ignore
                (P.iter_branch_events x.bytes ~pos:payload_pos ~len:payload_len
                   ~on_call:ignore ~on_ret:ignore
                   ~on_branch:(fun ~pc:_ ~taken:_ -> ())
                   ~on_other:ignore)
          | _ -> Common.fail "replay: frame did not scan");
      Spans.span "checker.replay" (fun () ->
          Ipds_machine.Replay.feed_all checker ~defined:(S.mem system) evs)
  | P.Load_image { image; _ } -> (
      Spans.span "server.scan_decode" (fun () ->
          ignore (P.decode_at x.bytes ~pos:0 ~len));
      Spans.span "server.sha256" (fun () ->
          ignore (Ipds_artifact.Sha256.hex_string image));
      match x.reply with
      | P.Loaded { cached = false; _ } ->
          Spans.span "server.decode" (fun () ->
              ignore (Ipds_artifact.Artifact.of_bytes (Bytes.of_string image)))
      | _ -> ())
  | _ ->
      Spans.span "server.scan_decode" (fun () ->
          ignore (P.decode_at x.bytes ~pos:0 ~len)));
  Spans.span "server.reply_encode" (fun () -> ignore (P.encode_frame x.reply))

(* What one check-remote-shaped session produced: whether the load hit
   the server's cache, the remote alarms and the inline checker's. *)
type outcome = { cached : bool; remote : string list; local : string list }

(* One session over [Wire]: connect, load [image], stream the events of
   [interp ~checker ~sink] in [Client.default_batch] batches while
   [checker] checks them inline, end the trace, close.  Returns the
   outcome ([None] on any refused frame) and the exchanges. *)
let session sock ~name ~image ~system ~interp =
  let c = connect sock in
  let exchanges = ref [] in
  let rpc f =
    let x = rpc c f in
    exchanges := x :: !exchanges;
    x.reply
  in
  let result =
    match
      Spans.span "session.load" (fun () ->
          rpc (P.Load_image { name; image = Bytes.to_string image }))
    with
    | P.Loaded { cached; _ } ->
        Spans.span "session.trace" (fun () ->
            match rpc P.Begin_trace with
            | P.Trace_started -> (
                let buf = ref [] and n = ref 0 and remote = ref [] and ok = ref true in
                let flush () =
                  if !n > 0 && !ok then begin
                    (match rpc (P.Branch_events (List.rev !buf)) with
                    | P.Verdicts vs -> remote := List.rev_append vs !remote
                    | _ -> ok := false);
                    buf := [];
                    n := 0
                  end
                in
                let sink e =
                  if Common.relevant e then begin
                    buf := e :: !buf;
                    incr n;
                    if !n >= Ipds_serve.Client.default_batch then flush ()
                  end
                in
                let checker = S.new_checker system in
                Spans.span "interp.session" (fun () -> interp ~checker ~sink);
                flush ();
                match rpc P.End_trace with
                | P.Trace_summary _ when !ok ->
                    Some
                      {
                        cached;
                        remote = Common.render (List.rev !remote);
                        local = Common.render (Ipds_core.Checker.alarms checker);
                      }
                | _ -> None)
            | _ -> None)
    | _ -> None
  in
  close c;
  (result, List.rev !exchanges)

(* An exchange kept for a later replay as bytes only: a traced phase
   that held decoded frames would grow the scanned heap and slow its
   own operations. *)
let compact x = (x.bytes, x.reply)

let expand (bytes, reply) =
  match P.decode_at bytes ~pos:0 ~len:(Bytes.length bytes) with
  | P.Frame (request, _) -> { request; bytes; reply }
  | _ -> Common.fail "a recorded request frame does not decode"

(* Replay a session's exchanges on a fresh checker; returns the bytes
   the client sent, its event frames, their events and branches. *)
type sent = { sent_bytes : int; frames : int; events : int; branches : int }

let replay_session ~system exchanges =
  let checker = S.new_checker system in
  List.fold_left
    (fun acc x ->
      replay ~checker ~system x;
      let acc = { acc with sent_bytes = acc.sent_bytes + Bytes.length x.bytes } in
      match x.request with
      | P.Branch_events evs ->
          let branches =
            List.length
              (List.filter
                 (fun (e : Ipds_machine.Event.t) ->
                   match e.Ipds_machine.Event.kind with
                   | Ipds_machine.Event.Branch _ -> true
                   | _ -> false)
                 evs)
          in
          {
            acc with
            frames = acc.frames + 1;
            events = acc.events + List.length evs;
            branches = acc.branches + branches;
          }
      | _ -> acc)
    { sent_bytes = 0; frames = 0; events = 0; branches = 0 }
    exchanges

(* The round-trip residual over the [ops] traced operations in [tbl]:
   the wait the replay cannot explain (kernel, scheduling, wake-ups),
   per operation, and the share of the measured round trips the named
   stages account for. *)
let reconcile tbl ~ops =
  let total name = (Spans.get tbl name).Spans.total in
  let server =
    total "server.scan_decode" +. total "checker.replay" +. total "server.sha256"
    +. total "server.decode" +. total "server.reply_encode"
  in
  let rtt = total "rpc" in
  let unattributed = total "wire.wait" -. server in
  ( (if ops = 0 then 0. else unattributed /. float_of_int ops),
    Stats.ratio
      ~num:(Common.us (rtt -. unattributed))
      ~den:(Common.us rtt) ~base:"us attributed / us measured round trip" )
