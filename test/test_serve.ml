(* Property/fuzz tests for the verdict-server wire protocol: frame
   encode→decode round trips, and the corruption contract — every
   byte flip and every truncation of a valid frame stream must yield a
   typed protocol error, never an exception (mirrors test_artifact's
   corruption style). *)

module P = Ipds_serve.Protocol
module Core = Ipds_core
module Q = QCheck2.Gen

let ( let* ) = Q.bind
let check = Alcotest.(check bool)

(* ---------- generators ---------- *)

let status : Core.Status.t Q.t =
  Q.oneofl [ Core.Status.Taken; Core.Status.Not_taken; Core.Status.Unknown ]

let verdict : Core.Checker.alarm Q.t =
  let* fname = Q.oneofl [ "main"; "aux"; "" ] in
  let* branch_pc = Gen.wide_int in
  let* expected = status in
  let* actual_taken = Q.bool in
  let* sequence = Q.int_range 0 100_000 in
  Q.return { Core.Checker.fname; branch_pc; expected; actual_taken; sequence }

let error_code : P.error_code Q.t =
  Q.oneofl
    [
      P.Bad_magic; P.Bad_version; P.Bad_crc; P.Oversized; P.Truncated;
      P.Unknown_frame; P.Malformed; P.Bad_state; P.Unknown_artifact;
      P.Corrupt_artifact; P.Timeout; P.Server_error; P.Overloaded;
      P.Unavailable;
    ]

let binary_string : string Q.t =
  let* n = Q.int_range 0 64 in
  Q.string_size ~gen:(Q.char_range '\000' '\255') (Q.return n)

let frame : P.frame Q.t =
  Q.oneof
    [
      Q.map (fun k -> P.Load_key k) binary_string;
      (let* name = Q.oneofl [ "telnetd"; "x"; "" ] in
       let* image = binary_string in
       Q.return (P.Load_image { name; image }));
      Q.return P.Begin_trace;
      Q.map
        (fun evs -> P.Branch_events evs)
        (Q.list_size (Q.int_range 0 40) Gen.event);
      Q.return P.End_trace;
      (let* name = Q.oneofl [ "telnetd"; "" ] in
       let* cached = Q.bool in
       Q.return (P.Loaded { name; cached }));
      Q.return P.Trace_started;
      Q.map (fun vs -> P.Verdicts vs) (Q.list_size (Q.int_range 0 20) verdict);
      (let* total_events = Gen.wide_int in
       let* total_branches = Q.int_range 0 max_int in
       let* total_alarms = Q.int_range 0 1000 in
       Q.return
         (P.Trace_summary { P.total_events; total_branches; total_alarms }));
      (let* code = error_code in
       let* detail = Q.oneofl [ "bad thing"; ""; "x" ] in
       Q.return (P.Error { P.code; detail }));
      Q.map (fun k -> P.Fetch_artifact k) binary_string;
      (let* key = binary_string in
       let* image = binary_string in
       Q.return (P.Push_artifact { key; image }));
      (let* key = binary_string in
       let* image = binary_string in
       Q.return (P.Artifact_data { key; image }));
      (let* key = binary_string in
       let* stored = Q.bool in
       Q.return (P.Artifact_pushed { key; stored }));
    ]

let frames : P.frame list Q.t = Q.list_size (Q.int_range 1 8) frame

let encode_stream fs =
  String.concat "" (List.map (fun f -> Bytes.to_string (P.encode_frame f)) fs)

(* ---------- round trip ---------- *)

let prop_roundtrip =
  QCheck2.Test.make ~name:"frame stream encode/decode round trip" ~count:300
    frames (fun fs ->
      match P.decode_string (encode_stream fs) with
      | Ok fs' -> fs' = fs
      | Error _ -> false)

(* ---------- corruption: every byte flip is a typed error ---------- *)

(* A fixed, representative stream: every client/server frame kind. *)
let sample_stream () =
  encode_stream
    [
      P.Load_key "telnetd-key";
      P.Load_image { name = "telnetd"; image = "\x00\x01binary\xff" };
      P.Begin_trace;
      P.Branch_events
        [
          {
            Ipds_machine.Event.fname = "main";
            iid = 3;
            pc = 0x1010;
            kind = Ipds_machine.Event.Branch { taken = true; target_pc = 0x1000 };
          };
          {
            Ipds_machine.Event.fname = "main";
            iid = 9;
            pc = 0x1020;
            kind = Ipds_machine.Event.Call { callee = "aux" };
          };
          { Ipds_machine.Event.fname = "aux"; iid = 1; pc = 0x2000; kind = Ipds_machine.Event.Ret };
        ];
      P.End_trace;
      P.Loaded { name = "telnetd"; cached = true };
      P.Trace_started;
      P.Verdicts
        [
          {
            Core.Checker.fname = "main";
            branch_pc = 0x1010;
            expected = Core.Status.Not_taken;
            actual_taken = true;
            sequence = 7;
          };
        ];
      P.Trace_summary { P.total_events = 3; total_branches = 1; total_alarms = 1 };
      P.Error { P.code = P.Timeout; detail = "session timed out" };
      P.Fetch_artifact "abcdef0123456789";
      P.Push_artifact { key = "abcdef0123456789"; image = "IPDS\x00raw\xfe" };
      P.Artifact_data { key = "abcdef0123456789"; image = "IPDS\x00raw\xfe" };
      P.Artifact_pushed { key = "abcdef0123456789"; stored = true };
    ]

let test_every_byte_flip_is_typed_error () =
  let s = sample_stream () in
  let decoded_ok = match P.decode_string s with Ok _ -> true | Error _ -> false in
  check "pristine stream decodes" true decoded_ok;
  List.iter
    (fun mask ->
      String.iteri
        (fun i _ ->
          let bad = Bytes.of_string s in
          Bytes.set bad i (Char.chr (Char.code (Bytes.get bad i) lxor mask));
          (* never an exception, never a silent pass: the CRC covers
             header and payload, magic/version are checked first, so
             every single-byte flip must surface as a typed error *)
          match P.decode_string (Bytes.to_string bad) with
          | Ok _ ->
              Alcotest.failf "flip 0x%02x at byte %d went undetected" mask i
          | Error e -> (
              match e.P.code with
              | P.Bad_magic | P.Bad_version | P.Bad_crc | P.Oversized
              | P.Truncated | P.Unknown_frame | P.Malformed ->
                  ()
              | other ->
                  Alcotest.failf "flip 0x%02x at byte %d: unexpected code %s"
                    mask i
                    (P.error_code_to_string other))
          | exception e ->
              Alcotest.failf "flip 0x%02x at byte %d raised %s" mask i
                (Printexc.to_string e))
        s)
    [ 0x01; 0x40; 0x80 ]

(* ---------- truncation: boundary cuts are fine, mid-frame cuts are
   typed Truncated errors ---------- *)

let test_every_truncation_is_typed () =
  let fs =
    [
      P.Load_key "k";
      P.Begin_trace;
      P.Branch_events
        [ { Ipds_machine.Event.fname = "f"; iid = 0; pc = 1; kind = Ipds_machine.Event.Alu } ];
      P.End_trace;
    ]
  in
  let encoded = List.map (fun f -> Bytes.to_string (P.encode_frame f)) fs in
  let s = String.concat "" encoded in
  (* cumulative end offsets: a cut at one of these lands exactly between
     frames and must decode to the whole frames before it *)
  let boundaries =
    List.rev
      (List.fold_left
         (fun acc e ->
           match acc with
           | off :: _ -> (off + String.length e) :: acc
           | [] -> assert false)
         [ 0 ] encoded)
  in
  for len = 0 to String.length s do
    let prefix = String.sub s 0 len in
    match P.decode_string prefix with
    | Ok fs' ->
        if not (List.mem len boundaries) then
          Alcotest.failf "cut at %d (mid-frame) decoded Ok" len;
        let complete =
          List.length (List.filter (fun b -> b <> 0 && b <= len) boundaries)
        in
        check
          (Printf.sprintf "boundary cut at %d decodes the whole frames" len)
          true
          (fs' = List.filteri (fun i _ -> i < complete) fs)
    | Error e ->
        if List.mem len boundaries then
          Alcotest.failf "cut at %d (boundary) errored: %s" len
            (P.error_code_to_string e.P.code);
        check
          (Printf.sprintf "mid-frame cut at %d is Truncated" len)
          true (e.P.code = P.Truncated)
    | exception e ->
        Alcotest.failf "truncation to %d raised %s" len (Printexc.to_string e)
  done

let prop_truncation_never_raises =
  QCheck2.Test.make ~name:"random truncation: typed result, never an exception"
    ~count:200
    (let* fs = frames in
     let s = encode_stream fs in
     let* len = Q.int_range 0 (String.length s) in
     Q.return (String.sub s 0 len))
    (fun prefix ->
      match P.decode_string prefix with
      | Ok _ | Error _ -> true)

(* ---------- hand-crafted damage the flip test cannot reach ---------- *)

(* Rebuild a frame with an arbitrary tag/payload but a VALID CRC, to
   exercise the paths behind the checksum. *)
let forge ~tag payload =
  let plen = String.length payload in
  let b = Bytes.create (P.header_bytes + plen + P.trailer_bytes) in
  Bytes.blit_string P.magic 0 b 0 4;
  Bytes.set b 4 (Char.chr P.version);
  Bytes.set b 5 (Char.chr tag);
  for i = 0 to 3 do
    Bytes.set b (6 + i) (Char.chr ((plen lsr (8 * i)) land 0xFF))
  done;
  Bytes.blit_string payload 0 b P.header_bytes plen;
  let crc =
    Int32.to_int (Ipds_artifact.Crc32.bytes b ~pos:0 ~len:(P.header_bytes + plen))
    land 0xFFFF_FFFF
  in
  for i = 0 to 3 do
    Bytes.set b (P.header_bytes + plen + i) (Char.chr ((crc lsr (8 * i)) land 0xFF))
  done;
  Bytes.to_string b

let expect_code name code s =
  match P.decode_string s with
  | Error e -> Alcotest.(check string) name (P.error_code_to_string code) (P.error_code_to_string e.P.code)
  | Ok _ -> Alcotest.failf "%s: decoded Ok" name
  | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)

let test_crafted_damage () =
  (* unknown tag, valid CRC *)
  expect_code "unknown tag" P.Unknown_frame (forge ~tag:9 "");
  (* known tag, valid CRC, garbage payload: string length field lies *)
  expect_code "malformed payload" P.Malformed (forge ~tag:1 "\xff\xff\xff\xff\xff\xff\xff\xff");
  (* empty payload where one is required *)
  expect_code "short payload" P.Malformed (forge ~tag:4 "");
  (* oversized length honoured before the CRC is even checked *)
  (let big = P.encode_frame (P.Load_image { name = "n"; image = String.make 4096 'x' }) in
   match P.decode_string ~max_frame:64 (Bytes.to_string big) with
   | Error e -> check "oversized is typed" true (e.P.code = P.Oversized)
   | Ok _ -> Alcotest.fail "oversized frame decoded Ok"
   | exception e -> Alcotest.failf "oversized raised %s" (Printexc.to_string e));
  (* wrong version byte *)
  (let s = Bytes.of_string (forge ~tag:3 "") in
   Bytes.set s 4 (Char.chr (P.version + 1));
   expect_code "version skew" P.Bad_version (Bytes.to_string s))

(* ---------- streaming fast path = generic decoder ---------- *)

(* The event-loop server streams Branch_events payloads through
   {!P.iter_branch_events} instead of materializing an event list; the
   two decoders must accept and reject byte-for-byte the same payloads
   and agree on every checker-relevant field. *)

type op = Op_call of string | Op_ret | Op_branch of int * bool | Op_other

let project (evs : Ipds_machine.Event.t list) =
  List.map
    (fun (e : Ipds_machine.Event.t) ->
      match e.Ipds_machine.Event.kind with
      | Ipds_machine.Event.Call { callee } -> Op_call callee
      | Ipds_machine.Event.Ret -> Op_ret
      | Ipds_machine.Event.Branch { taken; _ } ->
          Op_branch (e.Ipds_machine.Event.pc, taken)
      | _ -> Op_other)
    evs

let iter_result ?limit buf ~pos ~len =
  let acc = ref [] in
  match
    P.iter_branch_events ?limit buf ~pos ~len
      ~on_call:(fun c -> acc := Op_call c :: !acc)
      ~on_ret:(fun () -> acc := Op_ret :: !acc)
      ~on_branch:(fun ~pc ~taken -> acc := Op_branch (pc, taken) :: !acc)
      ~on_other:(fun () -> acc := Op_other :: !acc)
  with
  | n -> Ok (n, List.rev !acc)
  | exception Core.Bitstream.Past_end -> Error "short"
  | exception P.Malformed_payload m -> Error m

let payload_span evs =
  let b = P.encode_frame (P.Branch_events evs) in
  (b, P.header_bytes, Bytes.length b - P.header_bytes - P.trailer_bytes)

let prop_fast_path_matches_decode =
  QCheck2.Test.make
    ~name:"streaming batch decode = generic decode (fields and count)"
    ~count:300
    (Q.list_size (Q.int_range 0 40) Gen.event)
    (fun evs ->
      let buf, pos, len = payload_span evs in
      match iter_result buf ~pos ~len with
      | Ok (n, ops) -> n = List.length evs && ops = project evs
      | Error m -> QCheck2.Test.fail_reportf "fast path rejected: %s" m)

let prop_fast_path_rejects_identically =
  QCheck2.Test.make
    ~name:"streaming batch decode rejects exactly what generic decode rejects"
    ~count:400
    (let* evs = Q.list_size (Q.int_range 0 20) Gen.event in
     let* flip = Q.option (Q.int_range 0 1000) in
     let* cut = Q.option (Q.int_range 0 1000) in
     Q.return (evs, flip, cut))
    (fun (evs, flip, cut) ->
      let buf, pos, len = payload_span evs in
      (* damage the payload: truncate and/or flip one byte *)
      let len =
        match cut with Some c when len > 0 -> min len (c mod (len + 1)) | _ -> len
      in
      (match flip with
      | Some f when len > 0 ->
          let i = pos + (f mod len) in
          Bytes.set buf i (Char.chr (Char.code (Bytes.get buf i) lxor 0x81))
      | _ -> ());
      let generic =
        P.decode_span P.branch_events_tag buf ~pos ~len
      in
      match (generic, iter_result buf ~pos ~len) with
      | Ok (P.Branch_events evs'), Ok (n, ops) ->
          (* both accept: they must agree on what they decoded *)
          n = List.length evs' && ops = project evs'
      | Ok _, Ok _ -> false
      | Error _, Error _ -> true
      | Ok _, Error m ->
          QCheck2.Test.fail_reportf "generic accepted, fast rejected: %s" m
      | Error e, Ok _ ->
          QCheck2.Test.fail_reportf "generic rejected (%s), fast accepted"
            e.P.detail)

(* The detail strings for structurally bad payloads must match the
   generic decoder's exactly — clients see one vocabulary of typed
   errors no matter which server path decoded them. *)
let test_fast_path_details () =
  let reject payload =
    let b = Bytes.of_string payload in
    let generic =
      match P.decode_span P.branch_events_tag b ~pos:0 ~len:(Bytes.length b) with
      | Ok _ -> Alcotest.fail "generic decoder accepted a bad payload"
      | Error e -> e.P.detail
    in
    match iter_result b ~pos:0 ~len:(Bytes.length b) with
    | Ok _ -> Alcotest.fail "fast path accepted a bad payload"
    | Error m -> (generic, m)
  in
  (* list length out of range: 8 bytes of 0xff parse as a huge count *)
  let g, f = reject "\xff\xff\xff\xff\xff\xff\xff\xff" in
  Alcotest.(check string) "list length detail" g f;
  check "list length is the shared vocabulary" true
    (g = "list length out of range")

(* A decoder configured with a limit above the default must accept
   frames that fill it: string/list length bounds follow the effective
   max_frame, not the compile-time constant (they used to be pinned to
   the default, so raising --max-frame silently didn't work). *)
let test_raised_max_frame () =
  let image = String.make (P.default_max_frame + 16) 'y' in
  let big = Bytes.to_string (P.encode_frame (P.Load_image { name = "n"; image })) in
  (match P.decode_string ~max_frame:(2 * P.default_max_frame) big with
  | Ok [ P.Load_image { image = got; _ } ] ->
      check "above-default payload intact" true (String.equal got image)
  | Ok _ -> Alcotest.fail "unexpected decode shape"
  | Error e ->
      Alcotest.failf "raised limit still rejected: %s"
        (P.error_code_to_string e.P.code)
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e));
  match P.decode_string big with
  | Error e -> check "default limit still oversized" true (e.P.code = P.Oversized)
  | Ok _ -> Alcotest.fail "default limit decoded an oversized frame"
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)

(* ---------- artifact fetch/push against a live server ---------- *)

(* The fetch/push frames carry untrusted input onto the server's disk,
   so this section exercises the whole trust boundary end-to-end:
   verified bytes round trip, forged or colliding bytes are refused
   with typed errors, and malformed keys never reach path
   construction. *)

module Serve = Ipds_serve
module W = Ipds_workloads.Workloads

let with_store_server f =
  let tmp name =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ipds-serve-%s-%d-%d" name (Unix.getpid ()) (Random.bits ()))
  in
  let dir = tmp "store" in
  Unix.mkdir dir 0o755;
  let sock = tmp "sock" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      Serve.Server.with_server
        ~config:{ Serve.Server.default_config with store_dir = Some dir }
        (`Unix sock)
        (fun _server ->
          let client = Serve.Client.connect (`Unix sock) in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close client)
            (fun () -> f client)))

let expect_err name code = function
  | Error (e : P.err) ->
      Alcotest.(check string)
        name
        (P.error_code_to_string code)
        (P.error_code_to_string e.P.code)
  | Ok _ -> Alcotest.failf "%s: expected %s, got Ok" name (P.error_code_to_string code)

let test_push_fetch_roundtrip () =
  with_store_server (fun client ->
      let image =
        Ipds_artifact.Artifact.to_bytes
          (Core.System.cached_build (W.program (W.find "telnetd")))
      in
      let key = "e2e-roundtrip-key" in
      (match Serve.Client.push_artifact client ~key image with
      | Ok stored -> check "first push stores" true stored
      | Error e -> Alcotest.failf "push failed: %s" e.P.detail);
      (match Serve.Client.push_artifact client ~key image with
      | Ok stored -> check "identical re-push is a duplicate" false stored
      | Error e -> Alcotest.failf "re-push failed: %s" e.P.detail);
      (match Serve.Client.fetch_artifact client key with
      | Ok got -> check "fetched bytes identical" true (Bytes.equal got image)
      | Error e -> Alcotest.failf "fetch failed: %s" e.P.detail);
      (* the pushed artifact is immediately loadable for checking *)
      match Serve.Client.load_key client key with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "load_key after push failed: %s" e.P.detail)

let test_push_rejects_forgery () =
  with_store_server (fun client ->
      let image =
        Ipds_artifact.Artifact.to_bytes
          (Core.System.cached_build (W.program (W.find "crond")))
      in
      (* flip one payload byte: the container digest no longer matches,
         so the server must refuse to publish — typed, not an exception,
         and nothing lands in the store *)
      let forged = Bytes.copy image in
      let i = Bytes.length forged / 2 in
      Bytes.set forged i (Char.chr (Char.code (Bytes.get forged i) lxor 0x20));
      expect_err "forged push rejected" P.Corrupt_artifact
        (Serve.Client.push_artifact client ~key:"e2e-forged-key" forged);
      (* session closed after the typed error; reconnect happens via a
         fresh with_store_server in the next test.  Garbage that is not
         even a container is rejected the same way. *)
      ())

let test_push_rejects_garbage_and_collision () =
  with_store_server (fun client ->
      expect_err "garbage push rejected" P.Corrupt_artifact
        (Serve.Client.push_artifact client ~key:"e2e-garbage-key"
           (Bytes.of_string "not a container at all")));
  with_store_server (fun client ->
      let img w =
        Ipds_artifact.Artifact.to_bytes
          (Core.System.cached_build (W.program (W.find w)))
      in
      let key = "e2e-collision-key" in
      (match Serve.Client.push_artifact client ~key (img "telnetd") with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "seed push failed: %s" e.P.detail);
      expect_err "colliding push rejected" P.Corrupt_artifact
        (Serve.Client.push_artifact client ~key (img "httpd")))

let test_fetch_typed_misses () =
  with_store_server (fun client ->
      expect_err "unknown key" P.Unknown_artifact
        (Serve.Client.fetch_artifact client "e2e-absent-key"));
  (* a malformed key must be a typed error from the boundary check,
     never an Invalid_argument escaping path construction *)
  List.iter
    (fun key ->
      with_store_server (fun client ->
          expect_err
            (Printf.sprintf "malformed key %S" key)
            P.Unknown_artifact
            (Serve.Client.fetch_artifact client key)))
    [ "x"; ""; "../../etc/passwd"; ".hidden" ]

(* ---------- the server's LRU holds exactly cache_slots systems ---------- *)

let test_cache_slots_exact () =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ipds-serve-slots-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Serve.Server.with_server
    ~config:{ Serve.Server.default_config with cache_slots = 1 }
    (`Unix sock)
    (fun _server ->
      let load w =
        let image =
          Ipds_artifact.Artifact.to_bytes
            (Core.System.cached_build (W.program (W.find w)))
        in
        let client = Serve.Client.connect (`Unix sock) in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close client)
          (fun () ->
            match Serve.Client.load_image client ~name:w image with
            | Ok cached -> cached
            | Error e -> Alcotest.failf "load %s: %s" w e.P.detail)
      in
      check "telnetd cold" false (load "telnetd");
      check "telnetd resident" true (load "telnetd");
      check "crond cold" false (load "crond");
      check "crond evicted telnetd" false (load "telnetd"))

(* ---------- one feed loop behind both Branch_events entry points ---------- *)

(* [Session.handle (Branch_events evs)] and [Session.handle_events_span]
   on the same batch's wire span must be indistinguishable: the same
   reply frames (byte for byte, trace summary included) and the same
   stable counter deltas.  Slices of a recorded benign telnetd run
   start and stop mid-call, so Ret/Branch on an empty checker stack
   (the typed Bad_state path) occur as well as clean batches. *)

module Session = Ipds_serve.Session
module Reg = Ipds_obs.Registry

let telnetd_run =
  lazy
    (let w = W.find "telnetd" in
     let events = ref [] in
     ignore
       (Ipds_machine.Interp.run (W.program w)
          {
            Ipds_machine.Interp.default_config with
            max_steps = 20_000;
            inputs = Ipds_machine.Input_script.random ~seed:2006 ();
            record_trace = false;
            sink = Some (fun e -> events := e :: !events);
          });
     let image = Bytes.to_string (Ipds_artifact.Artifact.to_bytes (W.system w)) in
     (* one cache shared by every session, warmed here so each session's
        Loaded reply is the same cache hit *)
     let cache = Ipds_parallel.Memo.create ~capacity:1 () in
     let warm = Session.create ~store:None ~cache () in
     ignore
       (Session.handle warm ~send:ignore (P.Load_image { name = "telnetd"; image }));
     (Array.of_list (List.rev !events), image, cache))

let stable_counters =
  Session.
    [
      m_sessions; m_traces; m_events; m_branches; m_alarms; m_protocol_errors;
      m_state_errors;
    ]

(* Replies and stable counter deltas of one session that feeds
   [batches] through [feed], then ends the trace if it is still open. *)
let feed_session batches feed =
  let _, image, cache = Lazy.force telnetd_run in
  let before = List.map Reg.counter_value stable_counters in
  let replies = ref [] in
  let send f = replies := Bytes.to_string (P.encode_frame f) :: !replies in
  let s = Session.create ~store:None ~cache () in
  ignore (Session.handle s ~send (P.Load_image { name = "telnetd"; image }));
  ignore (Session.handle s ~send P.Begin_trace);
  let rec go = function
    | [] -> ignore (Session.handle s ~send P.End_trace)
    | b :: rest -> (
        match feed s ~send b with `Continue -> go rest | `Close -> ())
  in
  go batches;
  Session.close s;
  ( List.rev !replies,
    List.map2 ( - ) (List.map Reg.counter_value stable_counters) before )

let feed_list s ~send evs = Session.handle s ~send (P.Branch_events evs)

let feed_span s ~send evs =
  let buf, pos, len = payload_span evs in
  Session.handle_events_span s ~send ~max_frame:P.default_max_frame buf ~pos ~len

let same_feed batches = feed_session batches feed_list = feed_session batches feed_span

let rec batches_of sizes evs =
  match (sizes, evs) with
  | _, [] -> []
  | [], evs -> [ evs ]
  | k :: sizes, evs ->
      let batch = List.filteri (fun i _ -> i < k) evs in
      batch :: batches_of sizes (List.filteri (fun i _ -> i >= k) evs)

let prop_one_feed_loop =
  QCheck2.Test.make ~name:"list and span batches: same replies and counters"
    ~count:150
    (let* a = Q.int_range 0 10_000 in
     let* b = Q.int_range 0 10_000 in
     let* la = Q.int_range 0 800 in
     let* lb = Q.int_range 0 400 in
     let* shape = Q.oneofl [ `Prefix; `Suffix; `Splice ] in
     let* sizes = Q.list_size (Q.int_range 0 4) (Q.int_range 1 400) in
     Q.return (a, b, la, lb, shape, sizes))
    (fun (a, b, la, lb, shape, sizes) ->
      let events, _, _ = Lazy.force telnetd_run in
      let n = Array.length events in
      let slice start len =
        let start = start mod (n + 1) in
        Array.to_list (Array.sub events start (min len (n - start)))
      in
      let evs =
        match shape with
        | `Prefix -> slice 0 la
        | `Suffix -> slice (max 0 (n - la)) la
        | `Splice -> slice a la @ slice b lb
      in
      same_feed (batches_of sizes evs))

(* Pin that the property's space really contains the error path: a
   slice opening on the run's first Ret hits the empty-stack guard. *)
let test_empty_stack_slice () =
  let events, _, _ = Lazy.force telnetd_run in
  let rec first_ret i =
    match events.(i).Ipds_machine.Event.kind with
    | Ipds_machine.Event.Ret -> i
    | _ -> first_ret (i + 1)
  in
  let i = first_ret 0 in
  let evs = Array.to_list (Array.sub events i (min 50 (Array.length events - i))) in
  let replies, _ = feed_session [ evs ] feed_span in
  (match P.decode_string (List.nth replies (List.length replies - 1)) with
  | Ok [ P.Error { P.code = P.Bad_state; _ } ] -> ()
  | _ -> Alcotest.fail "expected a Bad_state reply");
  check "list arm agrees" true (same_feed [ evs ])

let () =
  Random.self_init ();
  Alcotest.run "serve-protocol"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          Alcotest.test_case "crafted damage" `Quick test_crafted_damage;
          Alcotest.test_case "raised max_frame" `Quick test_raised_max_frame;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "every byte flip" `Quick test_every_byte_flip_is_typed_error;
          Alcotest.test_case "every truncation" `Quick test_every_truncation_is_typed;
          QCheck_alcotest.to_alcotest prop_truncation_never_raises;
        ] );
      ( "fast-path",
        [
          QCheck_alcotest.to_alcotest prop_fast_path_matches_decode;
          QCheck_alcotest.to_alcotest prop_fast_path_rejects_identically;
          Alcotest.test_case "shared error vocabulary" `Quick
            test_fast_path_details;
        ] );
      ( "feed-loop",
        [
          QCheck_alcotest.to_alcotest prop_one_feed_loop;
          Alcotest.test_case "empty-stack slice is Bad_state" `Quick
            test_empty_stack_slice;
        ] );
      ( "artifact-sharing",
        [
          Alcotest.test_case "push/fetch round trip" `Quick
            test_push_fetch_roundtrip;
          Alcotest.test_case "forged push rejected" `Quick
            test_push_rejects_forgery;
          Alcotest.test_case "garbage + collision rejected" `Quick
            test_push_rejects_garbage_and_collision;
          Alcotest.test_case "typed fetch misses" `Quick test_fetch_typed_misses;
        ] );
      ( "server-cache",
        [
          Alcotest.test_case "cache_slots = 1 keeps one system" `Quick
            test_cache_slots_exact;
        ] );
    ]
