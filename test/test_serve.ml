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

(* The counter [serve.<name>], read through the registry snapshot as a
   metrics report reads it. *)
let serve_counter name =
  match List.assoc_opt ("serve." ^ name) (Ipds_obs.Registry.snapshot ()) with
  | Some (Ipds_obs.Registry.Counter n) -> n
  | _ -> Alcotest.failf "no counter serve.%s" name

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

(* A frame as it decodes: event batches in the wire normal form. *)
let normal = function
  | P.Branch_events evs -> P.Branch_events (Gen.wire_normal evs)
  | f -> f

(* ---------- round trip ---------- *)

let prop_roundtrip =
  QCheck2.Test.make ~name:"frame stream encode/decode round trip" ~count:300
    frames (fun fs ->
      match P.decode_string (encode_stream fs) with
      | Ok fs' -> fs' = List.map normal fs
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
          (fs' = List.filteri (fun i _ -> i < complete) (List.map normal fs))
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

let expect_code name code s =
  match P.decode_string s with
  | Error e -> Alcotest.(check string) name (P.error_code_to_string code) (P.error_code_to_string e.P.code)
  | Ok _ -> Alcotest.failf "%s: decoded Ok" name
  | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)

let test_crafted_damage () =
  (* unknown tag, valid CRC *)
  expect_code "unknown tag" P.Unknown_frame (Reseal.forge ~tag:9 "");
  (* known tag, valid CRC, garbage payload: string length field lies *)
  expect_code "malformed payload" P.Malformed (Reseal.forge ~tag:1 "\xff\xff\xff\xff\xff\xff\xff\xff");
  (* empty payload where one is required *)
  expect_code "short payload" P.Malformed (Reseal.forge ~tag:4 "");
  (* oversized length honoured before the CRC is even checked *)
  (let big = P.encode_frame (P.Load_image { name = "n"; image = String.make 4096 'x' }) in
   match P.decode_string ~max_frame:64 (Bytes.to_string big) with
   | Error e -> check "oversized is typed" true (e.P.code = P.Oversized)
   | Ok _ -> Alcotest.fail "oversized frame decoded Ok"
   | exception e -> Alcotest.failf "oversized raised %s" (Printexc.to_string e));
  (* wrong version byte *)
  (let s = Bytes.of_string (Reseal.forge ~tag:3 "") in
   Bytes.set s 4 (Char.chr (P.version + 1));
   expect_code "version skew" P.Bad_version (Bytes.to_string s))

(* ---------- the one Branch_events decoder ---------- *)

(* {!P.stage} is the one Branch_events decoder: the server stages
   every span through it, and {!P.iter_branch_events} and
   {!P.decode_span}'s event list are views of the same decode.  Damage
   behind a valid CRC must end in a typed rejection or a decode. *)

let iter_result buf ~pos ~len =
  match
    P.iter_branch_events buf ~pos ~len ~on_call:ignore ~on_ret:ignore
      ~on_branch:(fun ~pc:_ ~taken:_ -> ())
      ~on_other:(fun () -> failwith "on_other called")
  with
  | n -> Ok n
  | exception Core.Bitstream.Past_end -> Error "payload ends prematurely"
  | exception P.Malformed_payload m -> Error m

let payload_span evs =
  let b = P.encode_frame (P.Branch_events evs) in
  (b, P.header_bytes, Bytes.length b - P.header_bytes - P.trailer_bytes)

let prop_damaged_payload_typed =
  QCheck2.Test.make
    ~name:"damaged Branch_events payload: typed error or a decode"
    ~count:400
    (let* evs = Q.list_size (Q.int_range 0 40) Gen.event in
     let* flips = Q.list_size (Q.int_range 0 3) (Q.int_range 0 1000) in
     let* cut = Q.option (Q.int_range 0 1000) in
     Q.return (evs, flips, cut))
    (fun (evs, flips, cut) ->
      let buf, pos, len = payload_span evs in
      let len =
        match cut with Some c -> min len (c mod (len + 1)) | None -> len
      in
      if len > 0 then
        List.iter
          (fun f ->
            let i = pos + (f mod len) in
            Bytes.set buf i (Char.chr (Char.code (Bytes.get buf i) lxor (1 + (f land 0x7F)))))
          flips;
      match (iter_result buf ~pos ~len, P.decode_span P.branch_events_tag buf ~pos ~len) with
      | Ok n, Ok (P.Branch_events evs') -> n = List.length evs'
      | Error m, Error { P.code = P.Malformed; detail } -> String.equal m detail
      | _ -> false
      | exception e ->
          QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* Structurally bad payloads are rejected with the one vocabulary of
   detail strings, on the streaming and the list path alike. *)
let test_fast_path_details () =
  let reject name payload want =
    let b = Bytes.of_string payload in
    let len = Bytes.length b in
    (match P.decode_span P.branch_events_tag b ~pos:0 ~len with
    | Ok _ -> Alcotest.failf "%s: decode_span accepted a bad payload" name
    | Error e -> Alcotest.(check string) (name ^ " (list)") want e.P.detail);
    match iter_result b ~pos:0 ~len with
    | Ok _ -> Alcotest.failf "%s: iter_branch_events accepted a bad payload" name
    | Error m -> Alcotest.(check string) (name ^ " (stream)") want m
  in
  (* a count of 2^21 - 1 events with no bits left for them: rejected
     before anything count-sized is allocated *)
  reject "event count" "\xff\xff\x7f" "list length out of range";
  (* one event, no names; the count fits but 200 names cannot *)
  reject "name count" "\x01\xc8\x01\x00\x00" "list length out of range";
  (* one event, no names, then a call (op 0) to name index 0 *)
  reject "callee index" "\x01\x00\x00\x00" "bad callee index";
  (* a count whose ninth 7-bit group still says another follows *)
  reject "varint length" (String.make 9 '\xff' ^ "\x01") "varint too long";
  reject "short payload" "\x02\x00\x01" "payload ends prematurely"

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

(* [f] gets one client connected to a live server over a fresh store. *)
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
            (fun () -> f client (`Unix sock))))

let expect_err name code = function
  | Error (e : P.err) ->
      Alcotest.(check string)
        name
        (P.error_code_to_string code)
        (P.error_code_to_string e.P.code)
  | Ok _ -> Alcotest.failf "%s: expected %s, got Ok" name (P.error_code_to_string code)

let test_push_fetch_roundtrip () =
  with_store_server (fun client _ ->
      let image =
        Ipds_artifact.Artifact.to_bytes
          (W.system (W.find "telnetd"))
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
  with_store_server (fun client _ ->
      let image =
        Ipds_artifact.Artifact.to_bytes
          (W.system (W.find "crond"))
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
  with_store_server (fun client _ ->
      expect_err "garbage push rejected" P.Corrupt_artifact
        (Serve.Client.push_artifact client ~key:"e2e-garbage-key"
           (Bytes.of_string "not a container at all")));
  with_store_server (fun client _ ->
      let img w =
        Ipds_artifact.Artifact.to_bytes
          (W.system (W.find w))
      in
      let key = "e2e-collision-key" in
      (match Serve.Client.push_artifact client ~key (img "telnetd") with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "seed push failed: %s" e.P.detail);
      expect_err "colliding push rejected" P.Corrupt_artifact
        (Serve.Client.push_artifact client ~key (img "httpd")))

let verify_rejects () =
  serve_counter "artifact_verify_rejects"

(* A pushed container whose code section holds an integer literal past
   the int range: refused as a typed corrupt-artifact, counted once as
   a verification reject, and the server goes on serving. *)
let test_push_rejects_overlong_literal () =
  let good =
    Ipds_artifact.Artifact.to_bytes
      (W.system (W.find "telnetd"))
  in
  let bad =
    Reseal.container ~section:"code"
      (Bytes.of_string
         "func main() {\n e:\n  r0 = 99999999999999999999999\n  halt\n}\n")
      good
  in
  with_store_server (fun client addr ->
      let r0 = verify_rejects () in
      expect_err "overlong literal push rejected" P.Corrupt_artifact
        (Serve.Client.push_artifact client ~key:"e2e-overlong-key" bad);
      Alcotest.(check int) "one verification reject" 1 (verify_rejects () - r0);
      let c = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          (match Serve.Client.push_artifact c ~key:"e2e-overlong-key" good with
          | Ok stored -> check "a clean push then stores" true stored
          | Error e -> Alcotest.failf "clean push failed: %s" e.P.detail);
          match Serve.Client.load_key c "e2e-overlong-key" with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "load_key after the reject: %s" e.P.detail))

(* Set [width] bits of [b] at bit offset [pos], LSB first, as
   [Ipds_core.Bitstream] lays fields out. *)
let set_bits b ~pos ~width v =
  for k = 0 to width - 1 do
    let i = (pos + k) / 8 and m = 1 lsl ((pos + k) mod 8) in
    let c = Bytes.get_uint8 b i in
    Bytes.set_uint8 b i
      (if (v lsr k) land 1 = 1 then c lor m else c land lnot m)
  done

(* A pushed container whose [f0] table fails only [Image.validate]: its
   first BAT node is re-pointed at a branch slot the BCV leaves
   unchecked, which every cross-check against the code section
   accepts, and every CRC and the container digest are re-sealed.  The
   one validation [Image.make] runs inside [Artifact.of_bytes] must
   refuse it: typed, counted once, and nothing published. *)
let test_push_rejects_invalid_image () =
  let module Image = Core.Image in
  let sys = W.system (W.find "xinetd") in
  let good = Ipds_artifact.Artifact.to_bytes sys in
  let f0 =
    Bytes.copy (List.assoc "f0" (Ipds_artifact.Object_file.of_bytes good))
  in
  let _, image = Core.Encode.decode_image f0 ~pos:0 ~len:(Bytes.length f0) in
  let func =
    Ipds_mir.Program.find_func_exn sys.Core.System.program image.Image.fname
  in
  let unchecked =
    List.map (Image.slot_of_pc image)
      (Ipds_mir.Layout.branch_pcs sys.Core.System.layout func)
    |> List.filter (fun slot -> not (Image.checked image slot))
  in
  let n_nodes = Array.length image.Image.nodes in
  check "f0 has a node and an unchecked branch" true
    (n_nodes > 0 && unchecked <> []);
  (* [Encode]'s header, BCV bits and row heads come before the nodes;
     the first node written is [nodes.(0)], its slot field first *)
  let header = 16 + (8 * String.length image.Image.fname) + 32 + 24 + 16 + 16 in
  let space = image.Image.space in
  set_bits f0
    ~pos:(header + space + (((2 * space) + 1) * Image.ptr_bits ~n_nodes))
    ~width:(max 1 image.Image.space_bits)
    (List.hd unchecked);
  let bad = Reseal.container ~section:"f0" f0 good in
  let key = "e2e-invalid-image-key" in
  with_store_server (fun client addr ->
      let r0 = verify_rejects () in
      let reply = Serve.Client.push_artifact client ~key bad in
      expect_err "invalid image push rejected" P.Corrupt_artifact reply;
      (match reply with
      | Error e ->
          check "refused by Image.validate" true
            (String.ends_with ~suffix:"node targets an unchecked slot"
               e.P.detail)
      | Ok _ -> ());
      Alcotest.(check int) "one verification reject" 1 (verify_rejects () - r0);
      let c = Serve.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          expect_err "nothing published" P.Unknown_artifact
            (Serve.Client.fetch_artifact c key)))

let test_fetch_typed_misses () =
  with_store_server (fun client _ ->
      expect_err "unknown key" P.Unknown_artifact
        (Serve.Client.fetch_artifact client "e2e-absent-key"));
  (* a malformed key must be a typed error from the boundary check,
     never an Invalid_argument escaping path construction *)
  List.iter
    (fun key ->
      with_store_server (fun client _ ->
          expect_err
            (Printf.sprintf "malformed key %S" key)
            P.Unknown_artifact
            (Serve.Client.fetch_artifact client key)))
    [ "x"; ""; "../../etc/passwd"; ".hidden" ]

(* ---------- the server's LRU holds exactly cache_slots image sets ---------- *)

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
            (W.system (W.find w))
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

(* ---------- a failed start keeps no descriptor ---------- *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_failed_start_closes () =
  let taken = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close taken) @@ fun () ->
  Unix.bind taken (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen taken 1;
  let port =
    match Unix.getsockname taken with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let before = open_fds () in
  let refused what config expect =
    match Serve.Server.start ?config (`Tcp port) with
    | server ->
        Serve.Server.stop server;
        Alcotest.failf "%s: the server started" what
    | exception e when expect e -> ()
  in
  for _ = 1 to 20 do
    refused "a taken port" None (function
      | Unix.Unix_error (Unix.EADDRINUSE, _, _) -> true
      | _ -> false)
  done;
  Alcotest.(check int) "descriptors after EADDRINUSE" before (open_fds ());
  refused "jobs = 0"
    (Some { Serve.Server.default_config with jobs = 0 })
    (function Invalid_argument _ -> true | _ -> false);
  Alcotest.(check int) "descriptors after jobs = 0" before (open_fds ());
  (* a server that would refuse every frame as oversized *)
  refused "max_frame = 0"
    (Some { Serve.Server.default_config with max_frame = 0 })
    (function Invalid_argument _ -> true | _ -> false);
  Alcotest.(check int) "descriptors after max_frame = 0" before (open_fds ())

(* A default server runs on the caller's domain: [Server.start] at
   [jobs = 1] adds the tasks one blocked [Thread.create] adds, where a
   domain would add its own task and the runtime's backup thread.  The
   warm-ups leave the systhreads tick thread behind whichever way the
   reactor runs, so neither delta counts it. *)
let tasks () = Array.length (Sys.readdir "/proc/self/task")

(* The task count once joined threads have left: [Thread.join] returns
   when a thread's OCaml code is done, but its task may still be
   exiting.  Settled means five reads 10 ms apart agree (2 s at most). *)
let settled_tasks () =
  let rec go n stable a =
    Unix.sleepf 0.01;
    let b = tasks () in
    if stable = 4 || n = 0 then b
    else go (n - 1) (if a = b then stable + 1 else 0) b
  in
  go 200 0 (tasks ())

let thread_tasks () =
  let r, w = Unix.pipe ~cloexec:true () in
  let before = settled_tasks () in
  let th = Thread.create (fun () -> ignore (Unix.read r (Bytes.create 1) 0 1)) () in
  let delta = tasks () - before in
  ignore (Unix.write w (Bytes.make 1 '!') 0 1);
  Thread.join th;
  Unix.close r;
  Unix.close w;
  delta

let start_tasks () =
  let before = settled_tasks () in
  Serve.Server.with_server (`Tcp 0) (fun server ->
      let port = Option.get (Serve.Server.port server) in
      (* a reply: the reactor is up, and so is whatever its start adds *)
      let c = Serve.Client.connect (`Tcp ("127.0.0.1", port)) in
      let replied = Serve.Client.begin_trace c <> Ok () in
      Serve.Client.close c;
      check "the reactor replies" true replied;
      tasks () - before)

let test_default_one_domain () =
  ignore (start_tasks ());
  ignore (thread_tasks ());
  let thread = thread_tasks () in
  Alcotest.(check int) "tasks a jobs = 1 start adds" thread (start_tasks ())

(* ---------- the span feed loop against an in-process checker ---------- *)

(* [Session.handle_events_span] must answer each batch exactly as one
   in-process checker fed the same call/ret/branch events would: the
   alarms the batch raised, then a trace summary — or, at the first
   Ret/Branch on an empty checker stack, a typed Bad_state error instead
   of that batch's verdicts.  Slices of a recorded benign telnetd run
   start and stop mid-call, so the error path occurs as well as clean
   batches. *)

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
  [
    "sessions"; "traces"; "events"; "branches"; "alarms"; "protocol_errors";
    "state_errors";
  ]

(* Replies and stable counter deltas of one session that feeds
   [batches] through [feed], then ends the trace if it is still open. *)
let feed_session batches feed =
  let _, image, cache = Lazy.force telnetd_run in
  let before = List.map serve_counter stable_counters in
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
    List.map2 ( - ) (List.map serve_counter stable_counters) before )

(* The staging every session in this file is handed, as a reactor
   hands its own to each session it serves. *)
let staging = P.staging ()

let feed_span s ~send evs =
  let buf, pos, len = payload_span evs in
  Session.handle_events_span s ~send ~staging buf ~pos ~len

let reply_frame bytes =
  match P.decode_string bytes with
  | Ok [ f ] -> f
  | _ -> Alcotest.fail "a reply is not exactly one frame"

(* What a session over the telnetd image owes [batches] after
   Begin_trace, and the stable counter deltas that go with it, from one
   in-process checker over the same images. *)
let checker_feed batches =
  let _, image, _ = Lazy.force telnetd_run in
  let imgs = Ipds_artifact.Artifact.images_of_bytes (Bytes.of_string image) in
  let ck = Core.Checker.create ~lookup:(fun f -> List.assoc f imgs) in
  let events = ref 0 and branches = ref 0 and alarms = ref 0 in
  let feed n b (e : Ipds_machine.Event.t) =
    let nonempty what =
      if Core.Checker.depth ck = 0 then
        raise (Failure (what ^ " with an empty checker stack"))
    in
    match e.Ipds_machine.Event.kind with
    | Ipds_machine.Event.Call { callee } ->
        incr n;
        if List.mem_assoc callee imgs then ignore (Core.Checker.on_call ck callee)
    | Ipds_machine.Event.Ret ->
        incr n;
        nonempty "Ret";
        ignore (Core.Checker.on_return ck)
    | Ipds_machine.Event.Branch { taken; _ } ->
        incr n;
        nonempty "Branch";
        incr b;
        ignore (Core.Checker.on_branch ck ~pc:e.Ipds_machine.Event.pc ~taken)
    | _ -> ()
  in
  let rec go acc = function
    | [] ->
        ( P.Trace_summary
            {
              P.total_events = !events;
              total_branches = !branches;
              total_alarms = !alarms;
            }
          :: acc,
          0 )
    | batch :: rest -> (
        let before = Core.Checker.alarm_count ck in
        let n = ref 0 and b = ref 0 in
        match List.iter (feed n b) batch with
        | () ->
            let fresh = Core.Checker.alarms_since ck before in
            events := !events + !n;
            branches := !branches + !b;
            alarms := !alarms + List.length fresh;
            go (P.Verdicts fresh :: acc) rest
        | exception Failure detail ->
            (P.Error { P.code = P.Bad_state; detail } :: acc, 1))
  in
  let frames, state_errors = go [] batches in
  ( List.rev_map (fun f -> reply_frame (Bytes.to_string (P.encode_frame f))) frames,
    [ 1; 1; !events; !branches; !alarms; 0; state_errors ] )

let same_as_checker batches =
  let replies, deltas = feed_session batches feed_span in
  (* past the cached Loaded and Trace_started *)
  let replies = List.filteri (fun i _ -> i >= 2) replies in
  (List.map reply_frame replies, deltas) = checker_feed batches

let rec batches_of sizes evs =
  match (sizes, evs) with
  | _, [] -> []
  | [], evs -> [ evs ]
  | k :: sizes, evs ->
      let batch = List.filteri (fun i _ -> i < k) evs in
      batch :: batches_of sizes (List.filteri (fun i _ -> i >= k) evs)

let prop_span_feed_loop =
  QCheck2.Test.make ~name:"span batches: in-process checker's replies"
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
      same_as_checker (batches_of sizes evs))

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
  check "the in-process checker agrees" true (same_as_checker [ evs ])

(* The server hands every batch to [handle_events_span]; a decoded one
   reaching [handle] is a client-visible state error, not a second feed
   path. *)
let test_decoded_batch_refused () =
  let events, image, cache = Lazy.force telnetd_run in
  let s = Session.create ~store:None ~cache () in
  let replies = ref [] in
  let send f = replies := f :: !replies in
  ignore (Session.handle s ~send (P.Load_image { name = "telnetd"; image }));
  ignore (Session.handle s ~send P.Begin_trace);
  let r =
    Session.handle s ~send (P.Branch_events (Array.to_list (Array.sub events 0 20)))
  in
  Session.close s;
  check "the session closes" true (r = `Close);
  match !replies with
  | P.Error { P.code = P.Bad_state; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected a Bad_state reply"

(* [serve.alarms] counts exactly the alarms the Verdicts replies carry.
   The benign run raises none, so the trace flips every branch
   direction, and it goes in several batches. *)
let test_alarms_counted () =
  let events, _, _ = Lazy.force telnetd_run in
  let flip (e : Ipds_machine.Event.t) =
    match e.Ipds_machine.Event.kind with
    | Ipds_machine.Event.Branch b ->
        {
          e with
          Ipds_machine.Event.kind =
            Ipds_machine.Event.Branch { b with taken = not b.taken };
        }
    | _ -> e
  in
  let batches =
    batches_of [ 300; 300; 300 ] (List.map flip (Array.to_list events))
  in
  let replies, deltas = feed_session batches feed_span in
  let replied =
    List.fold_left
      (fun n r ->
        match reply_frame r with P.Verdicts vs -> n + List.length vs | _ -> n)
      0 replies
  in
  check (Printf.sprintf "%d alarms replied" replied) true (replied > 0);
  Alcotest.(check int)
    "serve.alarms delta" replied
    (List.assoc "alarms" (List.combine stable_counters deltas))

(* ---------- wire v2 on a real run ---------- *)

(* The first [n] checker events of the benign telnetd run replayed
   back to back (it enters and leaves [main], so copies chain as in
   perfbench's serve-stream). *)
let compact_slice n =
  let events, _, _ = Lazy.force telnetd_run in
  let run = Gen.wire_normal (Array.to_list events) in
  let copies = (n + List.length run - 1) / List.length run in
  List.filteri (fun i _ -> i < n) (List.concat (List.init copies (fun _ -> run)))

let branches evs =
  List.length
    (List.filter
       (fun (e : Ipds_machine.Event.t) ->
         match e.Ipds_machine.Event.kind with
         | Ipds_machine.Event.Branch _ -> true
         | _ -> false)
       evs)

(* Minor words one [handle_events_span] of [evs] allocates, on a fresh
   trace, into a staging whose arrays already hold the batch. *)
let span_words s evs =
  let buf, pos, len = payload_span evs in
  ignore (Session.handle s ~send:ignore P.Begin_trace);
  let w0 = Gc.minor_words () in
  let r = Session.handle_events_span s ~send:ignore ~staging buf ~pos ~len in
  let w = Gc.minor_words () -. w0 in
  ignore (Session.handle s ~send:ignore P.End_trace);
  if r <> `Continue then Alcotest.fail "the slice was refused";
  w

let test_compact_batch () =
  let n = Serve.Client.default_batch in
  let evs = compact_slice n in
  Alcotest.(check int) "slice length" n (List.length evs);
  let bytes = Bytes.length (P.encode_frame (P.Branch_events evs)) in
  check (Printf.sprintf "%d-byte frame is at most 4 bytes per event" bytes) true
    (bytes <= 4 * n);
  let _, image, cache = Lazy.force telnetd_run in
  let s = Session.create ~store:None ~cache () in
  ignore (Session.handle s ~send:ignore (P.Load_image { name = "telnetd"; image }));
  ignore (span_words s evs);
  let small = compact_slice (n / 4) in
  let extra = branches evs - branches small in
  check "the full slice has many more branches" true (extra >= 500);
  let w_small = span_words s small and w_full = span_words s evs in
  (* any per-branch allocation is at least one word a branch *)
  check
    (Printf.sprintf "%g then %g minor words for %d more branches" w_small w_full extra)
    true
    (w_full -. w_small < float_of_int extra /. 8.);
  Session.close s

(* ---------- a session allocates nothing large ---------- *)

(* Words the test's domain allocates straight into the major heap
   (large blocks, not promotions) while [f] runs. *)
let direct_major_words f =
  let _, p0, m0 = Gc.counters () in
  f ();
  let _, p1, m1 = Gc.counters () in
  m1 -. m0 -. (p1 -. p0)

(* One warm session as the reactor drives it: every frame through
   [Session.handle_span], in the test's domain. *)
let span_session stream =
  let _, _, cache = Lazy.force telnetd_run in
  let s = Session.create ~store:None ~cache () in
  let rec go pos =
    if pos < Bytes.length stream then
      match P.scan_at stream ~pos ~len:(Bytes.length stream - pos) with
      | P.Scan_frame { tag; payload_pos; payload_len; next } -> (
          match
            Session.handle_span s ~send:ignore ~max_frame:P.default_max_frame
              ~staging tag stream ~pos:payload_pos ~len:payload_len
          with
          | `Continue -> go next
          | `Close -> Alcotest.fail "the session was closed")
      | P.Scan_need _ | P.Scan_fail _ -> Alcotest.fail "bad frame stream"
  in
  go 0;
  Session.close s

let test_session_major_words () =
  let _, image, _ = Lazy.force telnetd_run in
  let stream =
    Bytes.concat Bytes.empty
      (List.map P.encode_frame
         [
           P.Load_image { name = "telnetd"; image };
           P.Begin_trace;
           P.Branch_events (compact_slice Serve.Client.default_batch);
           P.End_trace;
         ])
  in
  (* the first session may size the staging's arrays *)
  span_session stream;
  let words = direct_major_words (fun () -> span_session stream) in
  (* the [Load_image] payload decodes to one string of the image's
     size; the cache hit, the trace and the batch add no large block *)
  let payload = float_of_int ((String.length image / 8) + 2) in
  check
    (Printf.sprintf "%g major words for a %g-word payload" words payload)
    true
    (words <= payload +. 64.)

(* ---------- inline images: keyed by header digest, hits compare bytes ---------- *)

module Object_file = Ipds_artifact.Object_file

(* One [Load_image] of [image] in a fresh session over [cache]. *)
let load_inline cache image =
  let s = Session.create ~store:None ~cache () in
  let replies = ref [] in
  ignore
    (Session.handle s
       ~send:(fun f -> replies := f :: !replies)
       (P.Load_image { name = "img"; image }));
  Session.close s;
  match !replies with
  | [ P.Loaded { cached; _ } ] -> `Cached cached
  | [ P.Error { P.code; _ } ] -> `Error code
  | _ -> Alcotest.fail "expected exactly one Loaded or Error reply"

let telnetd_image () =
  Bytes.to_string (Ipds_artifact.Artifact.to_bytes (W.system (W.find "telnetd")))

(* The telnetd container with one more section, [pad], last in its
   table. *)
let padded_image pad =
  Bytes.to_string
    (Reseal.container ~section:"pad" pad (Bytes.of_string (telnetd_image ())))

let loaded_as what want got =
  check what true (got = want)

let test_image_hit () =
  let cache = Ipds_parallel.Memo.create ~capacity:4 () in
  let image = telnetd_image () in
  loaded_as "first load is cold" (`Cached false) (load_inline cache image);
  (* a fresh copy: equal bytes, not the same string *)
  loaded_as "same bytes again hit" (`Cached true)
    (load_inline cache (Bytes.to_string (Bytes.of_string image)))

let mismatches () = serve_counter "image_digest_mismatches"
let protocol_errors () = serve_counter "protocol_errors"

let test_forged_body () =
  let cache = Ipds_parallel.Memo.create ~capacity:4 () in
  let image = telnetd_image () in
  loaded_as "honest load" (`Cached false) (load_inline cache image);
  let forged = Bytes.of_string image in
  let last = Bytes.length forged - 1 in
  Bytes.set forged last (Char.chr (Char.code (Bytes.get forged last) lxor 1));
  let forged = Bytes.to_string forged in
  check "same header digest" true
    (Session.image_key forged = Session.image_key image);
  let m0 = mismatches () and p0 = protocol_errors () in
  loaded_as "forged body refused" (`Error P.Corrupt_artifact)
    (load_inline cache forged);
  Alcotest.(check int) "mismatch counted" 1 (mismatches () - m0);
  Alcotest.(check int) "error counted" 1 (protocol_errors () - p0);
  loaded_as "honest image still hits" (`Cached true) (load_inline cache image)

(* The section count sits outside the digested body, so a container
   that drops its last table entry keeps the digest and still verifies:
   other bytes under a cached key are served, but never from the
   cache. *)
let test_valid_mismatch_uncached () =
  let cache = Ipds_parallel.Memo.create ~capacity:4 () in
  let image = padded_image (Bytes.make 64 'p') in
  let variant = Bytes.of_string image in
  Bytes.set_int32_le variant 12 (Int32.pred (Bytes.get_int32_le variant 12));
  let variant = Bytes.to_string variant in
  check "same header digest" true
    (Session.image_key variant = Session.image_key image);
  loaded_as "padded load" (`Cached false) (load_inline cache image);
  let m0 = mismatches () in
  loaded_as "variant served uncached" (`Cached false) (load_inline cache variant);
  loaded_as "and never cached" (`Cached false) (load_inline cache variant);
  Alcotest.(check int) "both mismatches counted" 2 (mismatches () - m0);
  loaded_as "padded still hits" (`Cached true) (load_inline cache image)

let test_short_payload () =
  let cache = Ipds_parallel.Memo.create ~capacity:4 () in
  let image = telnetd_image () in
  loaded_as "honest load" (`Cached false) (load_inline cache image);
  for n = 0 to Object_file.header_bytes - 1 do
    check (Printf.sprintf "%d bytes: no key" n) true
      (Session.image_key (String.sub image 0 n) = None);
    loaded_as
      (Printf.sprintf "%d-byte prefix refused" n)
      (`Error P.Corrupt_artifact)
      (load_inline cache (String.sub image 0 n))
  done

(* Best of [n] wall-clock timings of [f], in seconds. *)
let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    f ();
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

(* A warm hit costs a byte compare, not a hash.  The [sha256.bytes]
   counter pins it exactly: the cold load hashes at least the
   container's body and each warm hit adds nothing to it.  On a
   container padded with a 1 MB section a hit must also take under a
   quarter of one SHA-256 over the same bytes through the portable
   kernel, the yardstick this bound was set against. *)
let test_warm_hit_cost () =
  let hashed = Reg.counter ~stable:false "sha256.bytes" in
  let cache = Ipds_parallel.Memo.create ~capacity:4 () in
  let image =
    padded_image (Bytes.init 1_048_576 (fun i -> Char.chr ((i * 131) land 0xFF)))
  in
  let h0 = Reg.counter_value hashed in
  loaded_as "padded load" (`Cached false) (load_inline cache image);
  let cold = Reg.counter_value hashed - h0 in
  check
    (Printf.sprintf "cold load hashed %d bytes of a %d-byte container" cold
       (String.length image))
    true
    (cold >= String.length image - Object_file.header_bytes);
  let copies = Array.init 5 (fun _ -> Bytes.to_string (Bytes.of_string image)) in
  let k = ref 0 in
  let hit =
    best_of 5 (fun () ->
        let h = Reg.counter_value hashed in
        loaded_as "warm hit" (`Cached true) (load_inline cache copies.(!k));
        Alcotest.(check int) "warm hit hashes no byte" 0 (Reg.counter_value hashed - h);
        incr k)
  in
  let buf = Bytes.of_string image in
  let sha =
    best_of 5 (fun () ->
        ignore (Ipds_core.Sha256.portable_bytes buf ~pos:0 ~len:(Bytes.length buf)))
  in
  check
    (Printf.sprintf "warm hit %.0f us vs portable SHA-256 %.0f us over %d bytes"
       (hit *. 1e6) (sha *. 1e6) (String.length image))
    true
    (hit < sha /. 4.)

(* ---------- slice-by-8 CRC-32 against the byte-at-a-time reference ---------- *)

let test_crc32_differential () =
  let module Crc32 = Ipds_artifact.Crc32 in
  Alcotest.(check int32) "check value" 0xCBF43926l (Crc32.string "123456789");
  let buf = Bytes.init (2048 + 8) (fun i -> Char.chr ((i * 7919) lxor (i lsr 3) land 0xFF)) in
  for pos = 0 to 7 do
    for len = 0 to 2048 do
      if Crc32.bytes buf ~pos ~len <> Crc32_ref.bytes buf ~pos ~len then
        Alcotest.failf "CRC-32 differs from the reference at pos %d len %d" pos len
    done
  done

(* ---------- frames split across reads ---------- *)

let tmp_sock name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ipds-serve-%s-%d-%d" name (Unix.getpid ()) (Random.bits ()))

(* Write [stream] to a fresh connection in the pieces [cuts] gives
   (offsets), pausing between writes so the server reads each piece on
   its own, then half-close and return every reply byte. *)
let exchange sock stream cuts =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let total = Bytes.length stream in
      let rec send_from pos = function
        | [] -> P.write_all fd stream pos (total - pos)
        | cut :: rest ->
            P.write_all fd stream pos (cut - pos);
            Unix.sleepf 0.0002;
            send_from cut rest
      in
      send_from 0 cuts;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let out = Buffer.create 256 and chunk = Bytes.create 4096 in
      let rec recv () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> Buffer.contents out
        | n ->
            Buffer.add_subbytes out chunk 0 n;
            recv ()
      in
      recv ())

let small_program =
  Ipds_minic.Minic.compile
    {|
int pick(int x) {
  if (x > 3) { return 1; }
  return 0;
}

int main() {
  int i;
  int s;
  s = 0;
  i = 0;
  while (i < 6) {
    if (i % 2) { s = s + pick(i); }
    i = i + 1;
  }
  output(s);
  return 0;
}
|}

let test_split_frames () =
  let sys = Core.System.build small_program in
  let image = Bytes.to_string (Ipds_artifact.Artifact.to_bytes sys) in
  let events = ref [] in
  ignore
    (Ipds_machine.Interp.run small_program
       {
         Ipds_machine.Interp.default_config with
         record_trace = false;
         sink = Some (fun e -> events := e :: !events);
       });
  let stream =
    Bytes.concat Bytes.empty
      (List.map P.encode_frame
         [
           P.Load_image { name = "small"; image };
           P.Begin_trace;
           P.Branch_events (List.rev !events);
           P.End_trace;
         ])
  in
  (* a frame past the reactor's read buffer: a garbage image, refused
     once whole *)
  let big =
    P.encode_frame (P.Load_image { name = "big"; image = String.make 150_000 'z' })
  in
  let sock = tmp_sock "split" in
  Serve.Server.with_server (`Unix sock) (fun _ ->
      (* the first load misses the cache; every later one hits *)
      ignore (exchange sock stream []);
      let want = exchange sock stream [] in
      check "the whole stream is answered" true
        (match P.decode_string want with
        | Ok [ P.Loaded _; P.Trace_started; P.Verdicts _; P.Trace_summary _ ] -> true
        | _ -> false);
      for cut = 1 to Bytes.length stream - 1 do
        if exchange sock stream [ cut ] <> want then
          Alcotest.failf "split at byte %d of %d: different replies" cut
            (Bytes.length stream)
      done;
      let want_big = exchange sock big [] in
      check "the big frame is refused" true
        (match P.decode_string want_big with
        | Ok [ P.Error { P.code = P.Corrupt_artifact; _ } ] -> true
        | _ -> false);
      let n = Bytes.length big in
      List.iter
        (fun cuts ->
          check
            (Printf.sprintf "big frame in %d pieces" (List.length cuts + 1))
            true
            (exchange sock big cuts = want_big))
        [
          [ 1 ]; [ n - 1 ]; [ 70_000 ]; List.init 37 (fun i -> (i + 1) * 4000);
        ])

(* ---------- the checker's call depth is bounded ---------- *)

(* No run nests deeper than [Interp.max_call_depth], so a deeper call
   is a hostile stream: refused with Bad_state, counted, and the
   session closed, before its checker frames exhaust server memory. *)

let call_main =
  {
    Ipds_machine.Event.fname = "main";
    iid = 0;
    pc = 0;
    kind = Ipds_machine.Event.Call { callee = "main" };
  }

let depth_refusals () = serve_counter "call_depth_refusals"

let test_call_depth_bound () =
  let r0 = depth_refusals () in
  let deepest = List.init Ipds_machine.Interp.max_call_depth (fun _ -> call_main) in
  let replies, _ = feed_session [ deepest; [ call_main ] ] feed_span in
  check "the deepest call is served, one more is Bad_state" true
    (match List.map reply_frame replies with
    | [ P.Loaded _; P.Trace_started; P.Verdicts []; P.Error { P.code = P.Bad_state; _ } ]
      ->
        true
    | _ -> false);
  Alcotest.(check int) "one refusal counted" 1 (depth_refusals () - r0)

(* A client that sends only calls into [main]: up to twenty frames of
   200 000 calls (about 250 KB each).  The first frame is refused, once,
   and the same server then serves a clean session. *)
let test_call_flood () =
  let events, image, _ = Lazy.force telnetd_run in
  let flood = List.init 200_000 (fun _ -> call_main) in
  let sock = tmp_sock "flood" in
  Serve.Server.with_server (`Unix sock) (fun _ ->
      let session f =
        let c = Serve.Client.connect (`Unix sock) in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            (match Serve.Client.load_image c ~name:"telnetd" (Bytes.of_string image) with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "load: %s" e.P.detail);
            f c)
      in
      let r0 = depth_refusals () in
      session (fun c ->
          (match Serve.Client.begin_trace c with
          | Ok () -> ()
          | Error e -> Alcotest.failf "begin: %s" e.P.detail);
          let rec flood_from frame =
            if frame > 20 then Alcotest.fail "twenty call frames accepted"
            else
              match Serve.Client.send_events c flood with
              | Ok _ -> flood_from (frame + 1)
              | Error e -> (frame, e.P.code)
          in
          let frame, code = flood_from 1 in
          Alcotest.(check int) "refused at the first frame" 1 frame;
          Alcotest.(check string) "typed refusal" "bad-state" (P.error_code_to_string code));
      Alcotest.(check int) "one refusal counted" 1 (depth_refusals () - r0);
      session (fun c ->
          match Serve.Client.trace c with
          | Error e -> Alcotest.failf "trace: %s" e.P.detail
          | Ok tr -> (
              Array.iter tr.Serve.Client.sink events;
              match tr.Serve.Client.finish () with
              | Ok (alarms, summary) ->
                  check "clean session: no alarms" true (alarms = []);
                  check "clean session: events checked" true
                    (summary.P.total_branches > 0)
              | Error e -> Alcotest.failf "clean session: %s" e.P.detail)))

(* A reactor's staging outlives sessions, so a frame that grows it
   must not leave it grown: a 256 KB frame of 2^20 Rets (2 bits each)
   is refused at its first Ret, counted, the staging the session was
   handed is back at [Client.default_batch] events, and a clean session
   is then served. *)
let ret_flood n =
  (* wire v2: varint count, no callee names, then 2-bit op 1 per event *)
  let rec varint v =
    if v lsr 7 = 0 then String.make 1 (Char.chr v)
    else String.make 1 (Char.chr (v land 0x7F lor 0x80)) ^ varint (v lsr 7)
  in
  Bytes.of_string (varint n ^ "\x00" ^ String.make ((n + 3) / 4) '\x55')

let test_ret_flood_staging () =
  let ret = { call_main with Ipds_machine.Event.kind = Ipds_machine.Event.Ret } in
  let small, pos, len = payload_span (List.init 8 (fun _ -> ret)) in
  check "the flood is the encoder's layout" true
    (Bytes.equal (Bytes.sub small pos len) (ret_flood 8));
  let flood = ret_flood (1 lsl 20) in
  check "at least 256 KB" true (Bytes.length flood >= 256 * 1024);
  let _, image, cache = Lazy.force telnetd_run in
  let errors0 = serve_counter "state_errors" in
  let s = Session.create ~store:None ~cache () in
  let replies = ref [] in
  let send f = replies := f :: !replies in
  ignore (Session.handle s ~send (P.Load_image { name = "telnetd"; image }));
  ignore (Session.handle s ~send P.Begin_trace);
  let r =
    Session.handle_span s ~send ~max_frame:P.default_max_frame ~staging
      P.branch_events_tag flood ~pos:0 ~len:(Bytes.length flood)
  in
  Session.close s;
  check "the session closes" true (r = `Close);
  (match !replies with
  | P.Error { P.code = P.Bad_state; detail } :: _ ->
      Alcotest.(check string) "refusal" "Ret with an empty checker stack" detail
  | _ -> Alcotest.fail "expected a Bad_state reply");
  Alcotest.(check int) "one state error counted" 1
    (serve_counter "state_errors" - errors0);
  Alcotest.(check int) "staging back at the default" Serve.Client.default_batch
    (P.staged_capacity staging);
  check "a clean session is served" true
    (same_as_checker [ compact_slice Serve.Client.default_batch ]);
  Alcotest.(check int) "staging still at the default" Serve.Client.default_batch
    (P.staged_capacity staging)

(* The names are bounded the same way.  A decode keeps only its own
   payload's names, and a payload of no events and [2 × staging_keep]
   empty callee names grows the staging's name table, so the next
   decode gets a fresh default batch; so does a payload that grows the
   events and then fails. *)
let test_name_flood_staging () =
  let rec varint v =
    if v lsr 7 = 0 then String.make 1 (Char.chr v)
    else String.make 1 (Char.chr (v land 0x7F lor 0x80)) ^ varint (v lsr 7)
  in
  let call callee =
    { call_main with Ipds_machine.Event.kind = Ipds_machine.Event.Call { callee } }
  in
  let three, pos3, len3 = payload_span [ call "a"; call "b"; call "c" ] in
  let b = P.stage staging three ~pos:pos3 ~len:len3 in
  Alcotest.(check (list string)) "three names" [ "a"; "b"; "c" ]
    (Array.to_list (Array.sub b.P.names 0 3));
  let small, pos, len = payload_span [ call_main ] in
  let before = P.stage staging small ~pos ~len in
  check "the same batch" true (before == b);
  Alcotest.(check (list string)) "the previous names are cleared"
    [ "main"; ""; "" ]
    (Array.to_list (Array.sub before.P.names 0 3));
  let k = 2 * P.staging_keep in
  let flood = Bytes.of_string ("\x00" ^ varint k ^ String.make k '\x00') in
  let grown = P.stage staging flood ~pos:0 ~len:(Bytes.length flood) in
  check "the flood decoded into the staging's batch" true (grown == before);
  Alcotest.(check int) "its names" k grown.P.k;
  let after = P.stage staging small ~pos ~len in
  check "the grown batch is not kept" true (after != grown);
  check "the fresh table is small" true
    (Array.length after.P.names <= P.staging_keep);
  Alcotest.(check int) "staging at the default" P.default_batch
    (P.staged_capacity staging);
  (* a flood that fails to decode is not kept either: 2^20 events, the
     last a call whose index the payload lacks *)
  let n = 1 lsl 20 in
  let bad =
    Bytes.of_string (varint n ^ "\x00" ^ String.make ((n / 4) - 1) '\x55' ^ "\x15")
  in
  (match P.stage staging bad ~pos:0 ~len:(Bytes.length bad) with
  | _ -> Alcotest.fail "a call without its index decoded"
  | exception Core.Bitstream.Past_end -> ());
  Alcotest.(check int) "a failed flood is not kept" P.default_batch
    (P.staged_capacity staging)

(* Reactor 0 shares the caller's domain, so it must not stage into the
   domain's own staging: one session whose single frame grows a staging
   past [default_batch], but not past [staging_keep], leaves the test
   thread's staging as it found it. *)
let test_reactor_staging () =
  let _, image, _ = Lazy.force telnetd_run in
  let n = 2 * P.default_batch in
  let before = P.staging_capacity () in
  check "the frame outgrows the caller's staging" true
    (n > before && n <= P.staging_keep);
  let sock = tmp_sock "staging" in
  Serve.Server.with_server (`Unix sock) (fun _ ->
      let c = Serve.Client.connect (`Unix sock) in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let ok what = function
            | Ok v -> v
            | Error e -> Alcotest.failf "%s: %s" what e.P.detail
          in
          ignore
            (ok "load" (Serve.Client.load_image c ~name:"telnetd" (Bytes.of_string image)));
          ok "begin" (Serve.Client.begin_trace c);
          ignore (ok "events" (Serve.Client.send_events c (compact_slice n)));
          let summary = ok "end" (Serve.Client.end_trace c) in
          Alcotest.(check int) "one frame's events checked" n summary.P.total_events));
  Alcotest.(check int) "the caller's staging is untouched" before
    (P.staging_capacity ())

(* A refused connect closes its socket: ring failover and the fleet
   launcher's readiness probe retry connects in a loop. *)
let test_refused_connect_closes () =
  let before = open_fds () in
  for _ = 1 to 20 do
    match Serve.Client.connect (`Unix (tmp_sock "absent")) with
    | c ->
        Serve.Client.close c;
        Alcotest.fail "connected to an absent socket"
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  done;
  Alcotest.(check int) "descriptors after ENOENT" before (open_fds ())

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
          QCheck_alcotest.to_alcotest prop_damaged_payload_typed;
          Alcotest.test_case "shared error vocabulary" `Quick
            test_fast_path_details;
        ] );
      ( "feed-loop",
        [
          QCheck_alcotest.to_alcotest prop_span_feed_loop;
          Alcotest.test_case "empty-stack slice is Bad_state" `Quick
            test_empty_stack_slice;
          Alcotest.test_case "decoded batch is Bad_state" `Quick
            test_decoded_batch_refused;
          Alcotest.test_case "default_batch slice: compact, flat allocation"
            `Quick test_compact_batch;
          Alcotest.test_case "warm session: no large allocation" `Quick
            test_session_major_words;
          Alcotest.test_case "serve.alarms counts replied alarms" `Quick
            test_alarms_counted;
        ] );
      ( "reactor-input",
        [
          Alcotest.test_case "frames split at every byte: same replies" `Quick
            test_split_frames;
          Alcotest.test_case "reactor stages apart from the caller" `Quick
            test_reactor_staging;
        ] );
      ( "call-depth",
        [
          Alcotest.test_case "max_call_depth served, one more refused" `Quick
            test_call_depth_bound;
          Alcotest.test_case "call flood refused once, server still serves"
            `Quick test_call_flood;
          Alcotest.test_case "Ret flood refused, staging back to default" `Quick
            test_ret_flood_staging;
          Alcotest.test_case "staging: floods dropped, names cleared" `Quick
            test_name_flood_staging;
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
          Alcotest.test_case "overlong literal push rejected" `Quick
            test_push_rejects_overlong_literal;
          Alcotest.test_case "invalid image push rejected" `Quick
            test_push_rejects_invalid_image;
        ] );
      ( "server-cache",
        [
          Alcotest.test_case "cache_slots = 1 keeps one system" `Quick
            test_cache_slots_exact;
        ] );
      ( "server-start",
        [
          Alcotest.test_case "refused start leaks no descriptor" `Quick
            test_failed_start_closes;
          Alcotest.test_case "jobs = 1 spawns no domain" `Quick
            test_default_one_domain;
        ] );
      ( "client",
        [
          Alcotest.test_case "refused connect leaks no descriptor" `Quick
            test_refused_connect_closes;
        ] );
      ( "image-cache",
        [
          Alcotest.test_case "same bytes: cold, then a hit" `Quick test_image_hit;
          Alcotest.test_case "forged body under a cached digest refused" `Quick
            test_forged_body;
          Alcotest.test_case "valid bytes under a cached digest: uncached"
            `Quick test_valid_mismatch_uncached;
          Alcotest.test_case "payload shorter than a header refused" `Quick
            test_short_payload;
          Alcotest.test_case "warm hit under a quarter of one SHA-256" `Quick
            test_warm_hit_cost;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "slice-by-8 = byte-at-a-time" `Quick
            test_crc32_differential;
        ] );
    ]
