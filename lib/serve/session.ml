(* Per-connection protocol logic of the verdict {!Server}: the frame
   state machine, the serve.* metrics, the typed error classification,
   and the one feed loop that replays a [Branch_events] batch — decoded
   as a list or streamed straight from its wire span — through the
   checker.

   Stable counters are sums of per-session deterministic work, so their
   totals are independent of scheduling and job count — the concurrency
   determinism test relies on that.  Timeouts and cache traffic depend
   on timing and session interleaving (LRU eviction order), so they are
   unstable; so is the latency histogram. *)

module Event = Ipds_machine.Event
module System = Ipds_core.System
module Checker = Ipds_core.Checker
module Store = Ipds_artifact.Store
module Memo = Ipds_parallel.Memo
module Reg = Ipds_obs.Registry

let m_sessions = Reg.counter "serve.sessions"
let m_frames_in = Reg.counter "serve.frames_in"
let m_frames_out = Reg.counter "serve.frames_out"
let m_traces = Reg.counter "serve.traces"
let m_events = Reg.counter "serve.events"
let m_branches = Reg.counter "serve.branches"
let m_alarms = Reg.counter "serve.alarms"
let m_protocol_errors = Reg.counter "serve.protocol_errors"
let m_state_errors = Reg.counter "serve.state_errors"
let m_artifact_fetches = Reg.counter "serve.artifact_fetches"
let m_artifact_pushes = Reg.counter "serve.artifact_pushes"
let m_artifact_verify_rejects = Reg.counter "serve.artifact_verify_rejects"
let m_artifact_peer_loads = Reg.counter ~stable:false "serve.artifact_peer_loads"
let m_timeouts = Reg.counter ~stable:false "serve.timeouts"
let m_batch_micros = Reg.histogram ~stable:false "serve.batch_micros"

let now_micros () = int_of_float (Unix.gettimeofday () *. 1e6)

exception State_violation of string

type t = {
  store : Store.t option;
  cache : (string, System.t) Memo.t;
  peer_fetch : (string -> (string, Protocol.err) result) option;
  mutable system : System.t option;
  mutable checker : Checker.t option;
  mutable tr_events : int;
  mutable tr_branches : int;
  mutable tr_alarms : int;
  (* Staging for the feed loop: a whole [Branch_events] batch lands in
     these flat arrays before any of it touches the checker, so a span
     that turns out malformed mid-batch mutates nothing. *)
  mutable st_op : int array;  (* 0 call / 1 ret / 2 branch-taken / 3 branch-not *)
  mutable st_arg : int array;  (* branch pc, or index into [st_callee] *)
  mutable st_callee : string array;
  mutable st_n : int;
  mutable st_ncallees : int;
}

let create ?peer_fetch ~store ~cache () =
  Reg.incr m_sessions;
  {
    store;
    cache;
    peer_fetch;
    system = None;
    checker = None;
    tr_events = 0;
    tr_branches = 0;
    tr_alarms = 0;
    st_op = Array.make 1024 0;
    st_arg = Array.make 1024 0;
    st_callee = Array.make 64 "";
    st_n = 0;
    st_ncallees = 0;
  }

(* The cache key of an inline image: the server and routing clients
   must derive it identically.  SHA-256 so the key is a
   collision-resistant content address, like store keys. *)
let image_key image = "img:" ^ Ipds_artifact.Sha256.hex_string image

(* Full verification of untrusted container bytes (a pushed artifact or
   one fetched from a peer): container digest, section CRCs, complete
   decode and structural validation of every flat image.  Anything less
   would let a forged frame publish unservable — or wrong — tables. *)
let verify_image bytes =
  match Ipds_artifact.Artifact.of_bytes bytes with
  | sys -> (
      match
        List.iter
          (fun (_, (i : System.func_info)) ->
            Ipds_core.Image.validate i.System.image)
          sys.System.funcs
      with
      | () -> Ok sys
      | exception Invalid_argument m -> Error m)
  | exception Ipds_artifact.Artifact.Corrupt m -> Error m

let send_error ~send code detail =
  (match code with
  | Protocol.Bad_state -> Reg.incr m_state_errors
  | Protocol.Timeout -> Reg.incr m_timeouts
  | Protocol.Server_error | Protocol.Overloaded -> ()
  | _ -> Reg.incr m_protocol_errors);
  send (Protocol.Error { Protocol.code; detail })

(* A session abandoned mid-trace still owes its checker deltas. *)
let close t =
  match t.checker with
  | Some ck ->
      Checker.flush ck;
      t.checker <- None
  | None -> ()

(* Resolve [key] through the shared cache, running [load] on a miss. *)
let load_system t ~send ~name key load =
  let loaded ~cached sys =
    t.system <- Some sys;
    send (Protocol.Loaded { name; cached });
    `Continue
  in
  match Memo.fetch t.cache key load with
  | `Hit sys -> loaded ~cached:true sys
  | `Loaded sys -> loaded ~cached:false sys
  | `Err (code, detail) ->
      send_error ~send code detail;
      `Close

(* {2 The feed loop}

   Both forms of a [Branch_events] batch — the decoded event list and
   the CRC-validated wire span — are first staged into flat arrays
   (the span through {!Protocol.iter_branch_events}, which validates
   the whole payload first), then replay through one loop with one set
   of guards, counters and verdict collection.  The span form never
   builds the event list. *)

let stage_grow t =
  let cap = Array.length t.st_op in
  if t.st_n = cap then begin
    let op = Array.make (2 * cap) 0 and arg = Array.make (2 * cap) 0 in
    Array.blit t.st_op 0 op 0 cap;
    Array.blit t.st_arg 0 arg 0 cap;
    t.st_op <- op;
    t.st_arg <- arg
  end

let stage_push t op arg =
  stage_grow t;
  t.st_op.(t.st_n) <- op;
  t.st_arg.(t.st_n) <- arg;
  t.st_n <- t.st_n + 1

let stage_callee t callee =
  let cap = Array.length t.st_callee in
  if t.st_ncallees = cap then begin
    let cs = Array.make (2 * cap) "" in
    Array.blit t.st_callee 0 cs 0 cap;
    t.st_callee <- cs
  end;
  t.st_callee.(t.st_ncallees) <- callee;
  stage_push t 0 t.st_ncallees;
  t.st_ncallees <- t.st_ncallees + 1

let stage_events t evs =
  List.fold_left
    (fun n (e : Event.t) ->
      (match e.Event.kind with
      | Event.Call { callee } -> stage_callee t callee
      | Event.Ret -> stage_push t 1 0
      | Event.Branch { taken; _ } ->
          stage_push t (if taken then 2 else 3) e.Event.pc
      | _ -> ());
      n + 1)
    0 evs

let feed_staged t ~send sys ck n =
  let t0 = now_micros () in
  (* O(1) against the checker's running count — a long trace's batch
     loop never rescans its alarm history, so framing cost amortizes
     over arbitrarily large batches *)
  let alarms_before = Checker.alarm_count ck in
  let branches_before = t.tr_branches in
  let feed () =
    for i = 0 to t.st_n - 1 do
      match t.st_op.(i) with
      | 0 ->
          let callee = t.st_callee.(t.st_arg.(i)) in
          (* extern calls have no tables and no frame *)
          if System.mem sys callee then ignore (Checker.on_call ck callee)
      | 1 ->
          if Checker.depth ck = 0 then
            raise (State_violation "Ret with an empty checker stack");
          ignore (Checker.on_return ck)
      | _ ->
          if Checker.depth ck = 0 then
            raise (State_violation "Branch with an empty checker stack");
          t.tr_branches <- t.tr_branches + 1;
          ignore (Checker.on_branch ck ~pc:t.st_arg.(i) ~taken:(t.st_op.(i) = 2))
    done
  in
  match feed () with
  | () ->
      t.tr_events <- t.tr_events + n;
      Reg.add m_events n;
      Reg.add m_branches (t.tr_branches - branches_before);
      let fresh = Checker.alarms_since ck alarms_before in
      let n_fresh = List.length fresh in
      t.tr_alarms <- t.tr_alarms + n_fresh;
      Reg.add m_alarms n_fresh;
      Reg.observe m_batch_micros (now_micros () - t0);
      send (Protocol.Verdicts fresh);
      `Continue
  | exception State_violation m ->
      send_error ~send Protocol.Bad_state m;
      `Close

(* [stage] fills the staging arrays and returns the batch's event count
   (all kinds), or a [Malformed] detail. *)
let feed_batch t ~send stage =
  match (t.system, t.checker) with
  | Some sys, Some ck -> (
      t.st_n <- 0;
      t.st_ncallees <- 0;
      match stage () with
      | Ok n -> feed_staged t ~send sys ck n
      | Error m ->
          send_error ~send Protocol.Malformed m;
          `Close)
  | _ ->
      send_error ~send Protocol.Bad_state "Branch_events outside an active trace";
      `Close

(* {2 The frame state machine} *)

let handle t ~send (f : Protocol.frame) =
  let send_err = send_error ~send in
  match f with
  | Protocol.Load_key key -> (
      match t.store with
      | None ->
          send_err Protocol.Unknown_artifact "no artifact store configured";
          `Close
      | Some store -> (
          let miss () =
            Error
              (Protocol.Unknown_artifact, "no loadable artifact for key " ^ key)
          in
          (* local store first; a cold shard then warms itself from a
             fleet peer — the fetched image is untrusted until
             [verify_image] passes, and only then published locally so
             the next miss is a plain store hit *)
          let load () =
            match Store.load_system store key with
            | Some sys -> Ok sys
            | None -> (
                match t.peer_fetch with
                | None -> miss ()
                | Some peer -> (
                    match peer key with
                    | Error (_ : Protocol.err) -> miss ()
                    | Ok image -> (
                        let bytes = Bytes.of_string image in
                        match verify_image bytes with
                        | Error m ->
                            Reg.incr m_artifact_verify_rejects;
                            Error
                              ( Protocol.Corrupt_artifact,
                                "peer artifact failed verification: " ^ m )
                        | Ok sys ->
                            Reg.incr m_artifact_peer_loads;
                            ignore (Store.publish_image store key bytes);
                            Ok sys)))
          in
          load_system t ~send ~name:key key load))
  | Protocol.Load_image { name; image } ->
      let load () =
        match Ipds_artifact.Artifact.of_bytes (Bytes.of_string image) with
        | sys -> Ok sys
        | exception Ipds_artifact.Artifact.Corrupt m ->
            Error (Protocol.Corrupt_artifact, m)
      in
      load_system t ~send ~name (image_key image) load
  | Protocol.Begin_trace -> (
      match (t.system, t.checker) with
      | None, _ ->
          send_err Protocol.Bad_state "Begin_trace before an artifact is loaded";
          `Close
      | Some _, Some _ ->
          send_err Protocol.Bad_state "a trace is already active";
          `Close
      | Some sys, None ->
          t.checker <- Some (System.new_checker sys);
          t.tr_events <- 0;
          t.tr_branches <- 0;
          t.tr_alarms <- 0;
          Reg.incr m_traces;
          send Protocol.Trace_started;
          `Continue)
  | Protocol.Branch_events evs ->
      feed_batch t ~send (fun () -> Ok (stage_events t evs))
  | Protocol.End_trace -> (
      match t.checker with
      | None ->
          send_err Protocol.Bad_state "End_trace outside an active trace";
          `Close
      | Some ck ->
          (* the stream need not drain the call stack; flush pending
             counter deltas before dropping the checker *)
          Checker.flush ck;
          t.checker <- None;
          send
            (Protocol.Trace_summary
               {
                 Protocol.total_events = t.tr_events;
                 total_branches = t.tr_branches;
                 total_alarms = t.tr_alarms;
               });
          `Continue)
  | Protocol.Fetch_artifact key -> (
      match t.store with
      | None ->
          send_err Protocol.Unknown_artifact "no artifact store configured";
          `Close
      | Some _ when not (Store.valid_key key) ->
          send_err Protocol.Unknown_artifact
            ("malformed artifact key " ^ String.escaped key);
          `Close
      | Some store -> (
          match Store.fetch_image store key with
          | `Image bytes ->
              Reg.incr m_artifact_fetches;
              send
                (Protocol.Artifact_data { key; image = Bytes.to_string bytes });
              `Continue
          | `Miss ->
              send_err Protocol.Unknown_artifact
                ("no artifact stored for key " ^ key);
              `Close
          | `Corrupt reason -> send_err Protocol.Corrupt_artifact reason; `Close))
  | Protocol.Push_artifact { key; image } -> (
      match t.store with
      | None ->
          send_err Protocol.Unknown_artifact "no artifact store configured";
          `Close
      | Some _ when not (Store.valid_key key) ->
          send_err Protocol.Unknown_artifact
            ("malformed artifact key " ^ String.escaped key);
          `Close
      | Some store -> (
          let bytes = Bytes.of_string image in
          match verify_image bytes with
          | Error m ->
              Reg.incr m_artifact_verify_rejects;
              send_err Protocol.Corrupt_artifact
                ("pushed artifact failed verification: " ^ m);
              `Close
          | Ok (_ : System.t) -> (
              match Store.publish_image store key bytes with
              | `Stored ->
                  Reg.incr m_artifact_pushes;
                  send (Protocol.Artifact_pushed { key; stored = true });
                  `Continue
              | `Duplicate ->
                  Reg.incr m_artifact_pushes;
                  send (Protocol.Artifact_pushed { key; stored = false });
                  `Continue
              | `Collision ->
                  send_err Protocol.Corrupt_artifact
                    ("a different valid artifact already holds key " ^ key);
                  `Close
              | `Failed m ->
                  send_err Protocol.Server_error ("publish failed: " ^ m);
                  `Close)))
  | Protocol.Loaded _ | Protocol.Trace_started | Protocol.Verdicts _
  | Protocol.Trace_summary _ | Protocol.Artifact_data _
  | Protocol.Artifact_pushed _ | Protocol.Error _ ->
      send_err Protocol.Bad_state "server-to-client frame from a client";
      `Close

let handle_events_span t ~send ~max_frame buf ~pos ~len =
  feed_batch t ~send (fun () ->
      match
        Protocol.iter_branch_events ~limit:max_frame buf ~pos ~len
          ~on_call:(fun callee -> stage_callee t callee)
          ~on_ret:(fun () -> stage_push t 1 0)
          ~on_branch:(fun ~pc ~taken -> stage_push t (if taken then 2 else 3) pc)
          ~on_other:(fun () -> ())
      with
      | n -> Ok n
      | exception Protocol.Malformed_payload m -> Error m
      | exception Ipds_core.Bitstream.Past_end -> Error "payload ends prematurely")

(* One entry point per CRC-validated frame span: [Branch_events] streams
   into the feed loop, every other tag goes through the generic
   decoder. *)
let handle_span t ~send ~max_frame tag buf ~pos ~len =
  if tag = Protocol.branch_events_tag then
    handle_events_span t ~send ~max_frame buf ~pos ~len
  else
    match Protocol.decode_span ~max_frame tag buf ~pos ~len with
    | Ok f -> handle t ~send f
    | Error e ->
        send_error ~send e.Protocol.code e.Protocol.detail;
        `Close
