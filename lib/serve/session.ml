(* Per-connection protocol logic of the verdict {!Server}: the frame
   state machine, the serve.* metrics, the typed error classification,
   and the feed loop that streams a [Branch_events] batch straight from
   its wire span through the checker.

   A session holds what the checker reads and nothing more: the flat
   images of the loaded artifact, by function name.  Every load path
   ([Load_image], [Load_key], a peer fetch) ends in that one set.

   Stable counters are sums of per-session deterministic work, so their
   totals are independent of scheduling and job count — the concurrency
   determinism test relies on that.  Timeouts and cache traffic depend
   on timing and session interleaving (LRU eviction order), so they are
   unstable; so is the latency histogram. *)

module System = Ipds_core.System
module Image = Ipds_core.Image
module Checker = Ipds_core.Checker
module Artifact = Ipds_artifact.Artifact
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

(* [Branch_events] batches refused with [bad-state] because a call would
   push the checker past [Interp.max_call_depth] frames; the session
   closes.  Bounds a session's checker stack. *)
let m_call_depth_refusals = Reg.counter "serve.call_depth_refusals"

(* [Fetch_artifact] frames answered with verified artifact bytes. *)
let m_artifact_fetches = Reg.counter "serve.artifact_fetches"

(* [Push_artifact] frames accepted (stored or byte-identical dup). *)
let m_artifact_pushes = Reg.counter "serve.artifact_pushes"

(* Inbound images (pushed or peer-fetched) that failed full verification
   and were rejected with [corrupt-artifact]. *)
let m_artifact_verify_rejects = Reg.counter "serve.artifact_verify_rejects"

(* Local-store misses satisfied by fetching a verified artifact from a
   fleet peer.  Unstable: depends on which shard warmed first. *)
let m_artifact_peer_loads = Reg.counter ~stable:false "serve.artifact_peer_loads"

(* [Load_image] frames whose header digest named a cached entry but whose
   bytes differed from it; each was decoded and verified on its own.
   Unstable: whether an entry is resident depends on timing. *)
let m_image_digest_mismatches =
  Reg.counter ~stable:false "serve.image_digest_mismatches"

let m_timeouts = Reg.counter ~stable:false "serve.timeouts"
let m_batch_micros = Reg.histogram ~stable:false "serve.batch_micros"

let now_micros () = int_of_float (Unix.gettimeofday () *. 1e6)

exception State_violation of string

(* Built once per load, then only read, from any reactor. *)
type images = (string, Image.t) Hashtbl.t

let images_of_list l =
  let tbl = Hashtbl.create (List.length l) in
  List.iter (fun (name, img) -> Hashtbl.replace tbl name img) l;
  tbl

(* [payload] is the verified container an inline image was decoded
   from; a [Load_image] hit must present exactly these bytes. *)
type entry = { images : images; payload : string option }

type t = {
  store : Store.t option;
  cache : (string, entry) Memo.t;
  peer_fetch : (string -> (Bytes.t, Protocol.err) result) option;
  mutable images : images option;
  mutable checker : Checker.t option;
  mutable tr_events : int;
  mutable tr_branches : int;
  mutable tr_alarms : int;
}

let create ?peer_fetch ~store ~cache () =
  Reg.incr m_sessions;
  {
    store;
    cache;
    peer_fetch;
    images = None;
    checker = None;
    tr_events = 0;
    tr_branches = 0;
    tr_alarms = 0;
  }

(* The cache key of an inline image: the server and routing clients
   must derive it identically.  It is the SHA-256 the container's
   header claims for its body, read, not computed: an entry only
   enters the cache once [images_of_bytes] has verified that claim,
   and a hit must present the entry's exact bytes, so a forged header
   can never be served another image's tables. *)
let image_key image =
  Option.map (fun d -> "img:" ^ d) (Ipds_artifact.Object_file.header_digest image)

(* Full verification of untrusted container bytes before they are
   published to the store (a pushed artifact or one fetched from a
   peer), all of it in [Artifact.of_bytes]: container digest, section
   CRCs, every flat image built through [Image.make] (and so through
   [Image.validate], once), and the complete decode with its
   cross-checks against the code section.  Anything less would let a
   forged frame publish unservable — or wrong — artifacts for
   [ipds inspect] and every other store reader. *)
let verify_image bytes =
  match Artifact.of_bytes bytes with
  | sys ->
      Ok
        (List.map
           (fun (name, (i : System.func_info)) -> (name, i.System.image))
           sys.System.funcs)
  | exception Artifact.Corrupt m -> Error m

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

let loaded t ~send ~name ~cached = function
  | Ok imgs ->
      t.images <- Some imgs;
      send (Protocol.Loaded { name; cached });
      `Continue
  | Error (code, detail) ->
      send_error ~send code detail;
      `Close

(* Resolve [key] through the shared cache, running [load] on a miss;
   [hit] serves a resident entry. *)
let load_cached t ~send ~name key load ~hit =
  match Memo.fetch t.cache key load with
  | `Hit e -> hit e
  | `Loaded e -> loaded t ~send ~name ~cached:false (Ok e.images)
  | `Err err -> loaded t ~send ~name ~cached:false (Error err)

(* The checker-only load of an inline image: nothing is published, so
   the code section the checker never reads is not decoded either; the
   payload is only read, so it is decoded in place. *)
let decode_image image =
  match Artifact.images_of_bytes (Bytes.unsafe_of_string image) with
  | l -> Ok (images_of_list l)
  | exception Artifact.Corrupt m -> Error (Protocol.Corrupt_artifact, m)

(* {2 The feed loop}

   A [Branch_events] batch arrives as a CRC-validated wire span.  It is
   first staged whole into the calling reactor's {!Protocol.staging},
   which the reactor hands over with the span in its {!scratch}, then
   replayed through one loop with one set of guards, counters and
   verdict collection.  The event list is never built.  Each of the
   batch's callee names is looked up in the session's images once,
   into the scratch, and every call pushes the checker frame of the
   image found there.

   A whole batch lands in the staging before any of it touches the
   checker, so a span that turns out malformed mid-batch mutates
   nothing.  A reactor stages and feeds one batch before it reads the
   next, so its one staging serves every session it runs; a session
   allocates none.

   The staging's bound.  It starts with room for
   {!Protocol.default_batch} events.  A frame's payload is at most
   [max_frame] bytes and an event at least 2 bits, so one frame stages
   at most [4 × max_frame] events at 2 words each: a peak of
   [64 × max_frame] bytes of event staging per reactor, 256 MB at the
   4 MiB default, held only while that frame is checked.  (Its callee
   names, at least one length byte each, are at most [max_frame] table
   slots and [max_frame] bytes of strings.)  A batch that grew the
   events or the name table past {!Protocol.staging_keep}
   ([4 × default_batch]) is not kept: the reactor's next decode gets a
   fresh default batch.  So between frames a reactor keeps at most that
   many events at 2 words each, 64 KB, a table of as many names, and
   the names of its last frame. *)

type scratch = {
  staging : Protocol.staging;
  mutable callees : Image.t option array;
      (** the image of each callee name of the batch being fed, [None]
          for an extern: one table lookup per name per batch, not one
          per call *)
}

let scratch staging = { staging; callees = Array.make 64 None }

let resolve_callees sc (st : Protocol.batch) imgs =
  let k = st.Protocol.k in
  if k > Array.length sc.callees then sc.callees <- Array.make k None;
  for j = 0 to k - 1 do
    sc.callees.(j) <- Hashtbl.find_opt imgs st.Protocol.names.(j)
  done;
  sc.callees

(* A batch's images are not held past it, and a table grown past
   {!Protocol.staging_keep} names is not kept, as in the staging. *)
let release_callees sc k =
  if Array.length sc.callees > Protocol.staging_keep then
    sc.callees <- Array.make 64 None
  else Array.fill sc.callees 0 k None

let feed_staged t ~send sc (st : Protocol.batch) imgs ck =
  let t0 = now_micros () in
  (* O(1) against the checker's running count — a long trace's batch
     loop never rescans its alarm history, so framing cost amortizes
     over arbitrarily large batches *)
  let alarms_before = Checker.alarm_count ck in
  let branches_before = t.tr_branches in
  let ev = st.Protocol.ev in
  let callees = resolve_callees sc st imgs in
  let feed () =
    for i = 0 to st.Protocol.n - 1 do
      let arg = ev.((2 * i) + 1) in
      match ev.(2 * i) with
      | 0 -> (
          match callees.(arg) with
          | None -> (* extern calls have no tables and no frame *) ()
          | Some img ->
              (* no run nests deeper than the interpreter allows, and
                 each checker frame costs server memory *)
              if Checker.depth ck >= Ipds_machine.Interp.max_call_depth then begin
                Reg.incr m_call_depth_refusals;
                raise
                  (State_violation
                     (Printf.sprintf "call past the maximum depth %d"
                        Ipds_machine.Interp.max_call_depth))
              end;
              ignore (Checker.push ck img))
      | 1 ->
          if Checker.depth ck = 0 then
            raise (State_violation "Ret with an empty checker stack");
          ignore (Checker.on_return ck)
      | op ->
          if Checker.depth ck = 0 then
            raise (State_violation "Branch with an empty checker stack");
          t.tr_branches <- t.tr_branches + 1;
          ignore (Checker.on_branch ck ~pc:arg ~taken:(op = 2))
    done
  in
  let fed = match feed () with () -> Ok () | exception State_violation m -> Error m in
  release_callees sc st.Protocol.k;
  match fed with
  | Ok () ->
      t.tr_events <- t.tr_events + st.Protocol.n;
      Reg.add m_events st.Protocol.n;
      Reg.add m_branches (t.tr_branches - branches_before);
      let fresh = Checker.alarms_since ck alarms_before in
      let n_fresh = List.length fresh in
      t.tr_alarms <- t.tr_alarms + n_fresh;
      Reg.add m_alarms n_fresh;
      Reg.observe m_batch_micros (now_micros () - t0);
      send (Protocol.Verdicts fresh);
      `Continue
  | Error m ->
      send_error ~send Protocol.Bad_state m;
      `Close

(* The span is staged whole (call/ret/branch only: the staged count is
   the batch's event count) before any of it is fed, so a malformed one
   is refused untouched. *)
let handle_events_span t ~send ~scratch buf ~pos ~len =
  match (t.images, t.checker) with
  | Some imgs, Some ck -> (
      match Protocol.stage scratch.staging buf ~pos ~len with
      | st -> feed_staged t ~send scratch st imgs ck
      | exception Protocol.Malformed_payload m ->
          send_error ~send Protocol.Malformed m;
          `Close
      | exception Ipds_core.Bitstream.Past_end ->
          send_error ~send Protocol.Malformed "payload ends prematurely";
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
            match Store.load_images store key with
            | Some l -> Ok (images_of_list l)
            | None -> (
                match t.peer_fetch with
                | None -> miss ()
                | Some peer -> (
                    match peer key with
                    | Error (_ : Protocol.err) -> miss ()
                    | Ok bytes -> (
                        match verify_image bytes with
                        | Error m ->
                            Reg.incr m_artifact_verify_rejects;
                            Error
                              ( Protocol.Corrupt_artifact,
                                "peer artifact failed verification: " ^ m )
                        | Ok l ->
                            Reg.incr m_artifact_peer_loads;
                            ignore (Store.publish_image store key bytes);
                            Ok (images_of_list l))))
          in
          load_cached t ~send ~name:key key
            (fun () ->
              Result.map (fun images -> { images; payload = None }) (load ()))
            ~hit:(fun e -> loaded t ~send ~name:key ~cached:true (Ok e.images))))
  | Protocol.Load_image { name; image } -> (
      (* a miss's one SHA-256 is [images_of_bytes]'s body check; a hit
         hashes nothing, it compares bytes *)
      match image_key image with
      | None -> loaded t ~send ~name ~cached:false (decode_image image)
      | Some key ->
          load_cached t ~send ~name key
            (fun () ->
              Result.map
                (fun images -> { images; payload = Some image })
                (decode_image image))
            ~hit:(function
              | { images; payload = Some p } when String.equal p image ->
                  loaded t ~send ~name ~cached:true (Ok images)
              | _ ->
                  (* the claimed digest of other bytes: this frame stands
                     on its own verification and is never cached *)
                  Reg.incr m_image_digest_mismatches;
                  loaded t ~send ~name ~cached:false (decode_image image)))
  | Protocol.Begin_trace -> (
      match (t.images, t.checker) with
      | None, _ ->
          send_err Protocol.Bad_state "Begin_trace before an artifact is loaded";
          `Close
      | Some _, Some _ ->
          send_err Protocol.Bad_state "a trace is already active";
          `Close
      | Some imgs, None ->
          t.checker <- Some (Checker.create ~lookup:(Hashtbl.find imgs));
          t.tr_events <- 0;
          t.tr_branches <- 0;
          t.tr_alarms <- 0;
          Reg.incr m_traces;
          send Protocol.Trace_started;
          `Continue)
  | Protocol.Branch_events _ ->
      (* the server streams every batch from its span *)
      send_err Protocol.Bad_state "Branch_events must arrive as a wire span";
      `Close
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
          | Ok (_ : (string * Image.t) list) -> (
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

(* One entry point per CRC-validated frame span: [Branch_events] streams
   into the feed loop, every other tag goes through the generic
   decoder. *)
let handle_span t ~send ~max_frame ~scratch tag buf ~pos ~len =
  if tag = Protocol.branch_events_tag then
    handle_events_span t ~send ~scratch buf ~pos ~len
  else
    match Protocol.decode_span ~max_frame tag buf ~pos ~len with
    | Ok f -> handle t ~send f
    | Error e ->
        send_error ~send e.Protocol.code e.Protocol.detail;
        `Close
