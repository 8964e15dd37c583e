(* The bit codec against its reference, and the byte formats it writes
   pinned as hashes.

   [Bitstream_ref] is the original bit-at-a-time writer/reader, kept
   as the oracle: the production [Ipds_core.Bitstream] must write the
   same bytes, read the same values and run out of input at the same
   field.  The golden hashes pin wire protocol v2 and artifact format
   v4 byte for byte: one SHA-256 per frame kind of a fixed fixture
   (whole frame, and payload alone), one per built-in workload's
   [Artifact.to_bytes] at each precision, and one over the first
   seed-2006 generated members at each precision.  The compile
   pipeline may get faster; these bytes may not move. *)

module Core = Ipds_core
module Bs = Core.Bitstream
module Ref = Bitstream_ref
module P = Ipds_serve.Protocol
module Event = Ipds_machine.Event
module W = Ipds_workloads.Workloads

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---------- oracle property ---------- *)

let write_new ops =
  let w = Bs.Writer.create () in
  List.iter (fun (Gen.Bits_field (width, v)) -> Bs.Writer.push w ~width v) ops;
  (Bs.Writer.contents w, Bs.Writer.bits_written w)

let write_ref ops =
  let w = Ref.Writer.create () in
  List.iter (fun (Gen.Bits_field (width, v)) -> Ref.Writer.push w ~width v) ops;
  (Ref.Writer.contents w, Ref.Writer.bits_written w)

(* Replay [ops] against a reader: [Ok values] when every field was
   read, [Error i] when op [i] ran out of input. *)
let replay ~pull ~past_end ops =
  let rec go i values = function
    | [] -> Ok (List.rev values)
    | Gen.Bits_field (width, _) :: rest -> (
        match pull width with
        | v -> go (i + 1) (v :: values) rest
        | exception e when past_end e -> Error i)
  in
  go 0 [] ops

let replay_new bytes ops =
  let r = Bs.Reader.of_bytes bytes in
  replay ops
    ~pull:(fun width -> Bs.Reader.pull r ~width)
    ~past_end:(function Bs.Past_end -> true | _ -> false)

let replay_ref bytes ops =
  let r = Ref.Reader.of_bytes bytes in
  replay ops
    ~pull:(fun width -> Ref.Reader.pull r ~width)
    ~past_end:(function Invalid_argument _ -> true | _ -> false)

let prop_matches_oracle =
  QCheck2.Test.make ~name:"bitstream matches the bit-at-a-time oracle"
    ~count:500
    QCheck2.Gen.(pair Gen.bitstream_ops (int_bound 1000))
    (fun (ops, cut) ->
      let bytes, bits = write_new ops in
      let ref_bytes, ref_bits = write_ref ops in
      let same_write = Bytes.equal bytes ref_bytes && bits = ref_bits in
      let same_read = replay_new bytes ops = replay_ref ref_bytes ops in
      let short = Bytes.sub bytes 0 (cut mod (Bytes.length bytes + 1)) in
      let same_cut = replay_new short ops = replay_ref short ops in
      same_write && same_read && same_cut)

let test_span_reader () =
  (* a reader over a span inside a larger buffer reads the span's
     values and runs out at the span's end, not the buffer's *)
  let w = Bs.Writer.create () in
  List.iter (fun v -> Bs.Writer.push w ~width:13 v) [ 1; 8191; 4097; 0; 77 ];
  let payload = Bs.Writer.contents w in
  let n = Bytes.length payload in
  let buf = Bytes.make (n + 6) '\255' in
  Bytes.blit payload 0 buf 3 n;
  let r = Bs.Reader.of_span buf ~pos:3 ~len:n in
  let values = List.init 5 (fun _ -> Bs.Reader.pull r ~width:13) in
  check "span values" true (values = [ 1; 8191; 4097; 0; 77 ]);
  check "span end" true
    (match Bs.Reader.pull r ~width:13 with
    | _ -> false
    | exception Bs.Past_end -> true)

let test_checks_kept () =
  let w = Bs.Writer.create () in
  let rejects f = match f () with () -> false | exception Invalid_argument _ -> true in
  check "width 63 rejected" true (rejects (fun () -> Bs.Writer.push w ~width:63 0));
  check "negative width rejected" true
    (rejects (fun () -> Bs.Writer.push w ~width:(-1) 0));
  check "value too wide rejected" true
    (rejects (fun () -> Bs.Writer.push w ~width:3 8));
  check "negative value rejected" true
    (rejects (fun () -> Bs.Writer.push w ~width:8 (-1)));
  check "writer untouched by rejects" true (Bs.Writer.bits_written w = 0);
  let r = Bs.Reader.of_bytes (Bytes.make 16 '\000') in
  check "reader width 63 rejected" true
    (rejects (fun () -> ignore (Bs.Reader.pull r ~width:63)))

(* ---------- golden hashes ---------- *)

let ev fname iid pc kind = { Event.fname; iid; pc; kind }

(* every event kind, negative and extreme ints, empty names *)
let fixture_events =
  [
    ev "main" 0 4096 Event.Alu;
    ev "" 1 (-4) (Event.Load { addr = -1 });
    ev "aux" 2 max_int (Event.Store { addr = min_int });
    ev "main" 3 0x1080 (Event.Branch { taken = true; target_pc = 0x10c0 });
    ev "main" 4 0x10c0 (Event.Branch { taken = false; target_pc = -77 });
    ev "main" 5 min_int (Event.Jump { target_pc = max_int });
    ev "main" 6 0x2000 (Event.Call { callee = "helper" });
    ev "helper" 7 0x3000 (Event.Call { callee = "" });
    ev "helper" 8 0x3004 Event.Ret;
    ev "a_function_with_a_long_name" 9 12 Event.Input_read;
    ev "main" 10 13 (Event.Output_write (-123456789));
    ev "main" 11 14 (Event.Fault_inject { skipped = true });
    ev "main" 12 15 (Event.Fault_inject { skipped = false });
  ]

let binary = "\000\001\127\128\254\255 image bytes"

let fixture_frames =
  [
    ("load_key", P.Load_key "telnetd-0123456789abcdef");
    ("load_image", P.Load_image { name = "telnetd"; image = binary });
    ("begin_trace", P.Begin_trace);
    ("branch_events", P.Branch_events fixture_events);
    ("end_trace", P.End_trace);
    ("fetch_artifact", P.Fetch_artifact "");
    ("push_artifact", P.Push_artifact { key = "k"; image = binary });
    ("loaded", P.Loaded { name = ""; cached = true });
    ("trace_started", P.Trace_started);
    ( "verdicts",
      P.Verdicts
        [
          {
            Core.Checker.fname = "main";
            branch_pc = 0x10c0;
            expected = Core.Status.Taken;
            actual_taken = false;
            sequence = 3;
          };
          {
            Core.Checker.fname = "";
            branch_pc = -1;
            expected = Core.Status.Unknown;
            actual_taken = true;
            sequence = max_int;
          };
          {
            Core.Checker.fname = "aux";
            branch_pc = min_int;
            expected = Core.Status.Not_taken;
            actual_taken = true;
            sequence = 0;
          };
        ] );
    ( "trace_summary",
      P.Trace_summary { P.total_events = -5; total_branches = max_int; total_alarms = 0 } );
    ("artifact_data", P.Artifact_data { key = "abc"; image = "" });
    ("artifact_pushed", P.Artifact_pushed { key = "abc"; stored = false });
    ("error", P.Error { P.code = P.Unavailable; detail = "shard 2 is down" });
  ]

let sha bytes = Ipds_core.Sha256.hex_bytes bytes

(* Wire v2 whole frames, header and CRC included. *)
let golden_frames =
  [
    ("load_key", "bc227ea9ca52360c91069e2ed8e6b8bfe44d7da5c8857579597ddc959f1a10d9");
    ("load_image", "dbe42d93df9709fbbbd99fc6b11b88d3a0a02afa488cbf8488f1b7503015da92");
    ("begin_trace", "44f122a2b4a5b1f6f206a672e4d57e5f4b24b655015701d4afcab0ff6b729dba");
    ("branch_events", "0a014b9ad942105898f73eb9dd7950d76ac32e7a792a09614fc8c1b51e081e20");
    ("end_trace", "ac423ef89ff5f5932eb5d48c57485973cf5205ed445fa9e544e8d0404b47547f");
    ("fetch_artifact", "8856e19077e8fd331db676ab25fe0fb7fab384e146565700e294b0708427c3b2");
    ("push_artifact", "8df3bcaf6c8447e689d3cfb45674fa964753aed2663aa69a55f808aef7d9b7c9");
    ("loaded", "f2a0d274c96c1f8f13a609426cb970382048a5eaae77c830857e802c91b8a349");
    ("trace_started", "f044199fb544d1157df7c9d01174cc418594e48add9949c630e2e374d09085b2");
    ("verdicts", "8af5efbdbee1202d512d2d1f04fe8c52b9e1ceec1c84c8d2bf9c5375acfe154d");
    ("trace_summary", "4f32e8a53a47543e23cad64a0eaa6bcb79b18878827882f71e4bf19c99e38fcd");
    ("artifact_data", "23d54d122eb7c20f92c9db978921b16be8496cb1e71c4414d22d6519b859aff4");
    ("artifact_pushed", "aef298cb6968b19fb2f0c60461bedc0675186f8a6e352c1b8e7f7e8f4e9c285c");
    ("error", "6b387c074a4c03ea98f5f0a49a5daac2a4c8c576c964e280389ef6910d1feba7");
  ]

let golden_artifacts =
  [
    ("telnetd", "34d9ff92b87c8a293d6d04c1434a286a15c234110f9f5da22c4aca052a72b51c");
    ("wu-ftpd", "a8850d6384c4cbc33a84ab0e86fb3d838ec44c48d6ed5bfd48ef896d26f6dbfd");
    ("xinetd", "f30979335bd952d9848a11f0acb2864902b72aefa47480b620505747dc835d7b");
    ("crond", "423fa2920579501c68ad09b437ecf90e53d120a4b61b612c67393684bc52f923");
    ("sysklogd", "1665225019f0e9d781bf0d54e6dfe3824e6632771f732c916eb64c6173c3492a");
    ("atftpd", "d2a2bfca6a96fad8431cc902bf04f4a5a5196aeff1491adc23ac9a1166b04d03");
    ("httpd", "849655c3fbd5aea58b91a2efef0efe4398724da5d3c46937bb91cb6d781d14ba");
    ("sendmail", "54b7abce5e3a1557f5b5bbc729cbd4257df63f8fb210c6d6a3fa87d60d639a5d");
    ("sshd", "d5905c66548bbd040297a40ee45b3a7708b3ad7301fd60c833a118620c3eef46");
    ("portmap", "eaccfe6672f61a65c943aaba2af2e27a3b3f7b61c333dc96560df7eaf0f0b6aa");
    ("fwpolicyd", "f1407d64813ef03caa0e7f6ea4345d3f3ffc7a3e793489af07f4acd9ff6c416b");
  ]

let test_golden_frames () =
  List.iter
    (fun (name, f) ->
      let got = sha (P.encode_frame f) in
      match List.assoc_opt name golden_frames with
      | Some want -> check_str ("frame " ^ name) want got
      | None -> Alcotest.failf "no golden hash for frame %s (got %s)" name got)
    fixture_frames

(* The payload span of every fixture frame, without header or CRC:
   the version byte sits inside the CRC, so a version bump changes
   every full-frame hash above; these show which payload layouts
   really changed.  Computed at wire v1; v2 changed only
   [branch_events]. *)
let golden_payloads =
  [
    ("load_key", "32a3d4e42101c54ecfe24fae18278c7e72fb5aa3121fdc597925f9d01cc317ac");
    ("load_image", "db7f59392457ee861abedca0a6be8a9da7ddd3efc25c7e9e2b72454aef6de107");
    ("begin_trace", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("branch_events", "7f5660c94a2541c568375bd9fe834a8852dcc25ff9c0b37e429ef2948b9f1e74");
    ("end_trace", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("fetch_artifact", "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc");
    ("push_artifact", "9a25f4d672d336e9e1cdbe26d00e8edf48b7acefb8bc1ddfcb4d7eedae07a1de");
    ("loaded", "e6ad6c9a3a3b7658c35bacf6553fcb8ffe34387534a648fe18f875b8f7a86ddb");
    ("trace_started", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("verdicts", "c4038d78101a6c22652faae5b8bc2b83485f57e7f16faec846471cc0a644421b");
    ("trace_summary", "069104dc85b4c50a7334169aaad0e390ea181443965f7ec1514b8dfc07b73c00");
    ("artifact_data", "fea81d2fc4039c12e726ee3b849e6de60ed040b23e019abbd2281f0b2ad348bf");
    ("artifact_pushed", "b36f3498c15c381220d59e5b0809a033129144cebd17977b12375ee351b9f936");
    ("error", "69baadf2dd51dd75f63e3df352c267f4f5e7a21edf670585650aaa38fe278c79");
  ]

let payload_span f =
  let b = P.encode_frame f in
  Bytes.sub b P.header_bytes (Bytes.length b - P.header_bytes - P.trailer_bytes)

let test_golden_payloads () =
  List.iter
    (fun (name, f) ->
      let got = sha (payload_span f) in
      match List.assoc_opt name golden_payloads with
      | Some want -> check_str ("payload " ^ name) want got
      | None -> Alcotest.failf "no golden hash for payload %s (got %s)" name got)
    fixture_frames

(* Every error code with its wire byte and its name, written out: a
   permutation of the codes' wire ints would still round-trip, so the
   ints themselves are pinned here. *)
let golden_error_codes =
  [
    (P.Bad_magic, 0, "bad-magic");
    (P.Bad_version, 1, "bad-version");
    (P.Bad_crc, 2, "bad-crc");
    (P.Oversized, 3, "oversized");
    (P.Truncated, 4, "truncated");
    (P.Unknown_frame, 5, "unknown-frame");
    (P.Malformed, 6, "malformed");
    (P.Bad_state, 7, "bad-state");
    (P.Unknown_artifact, 8, "unknown-artifact");
    (P.Corrupt_artifact, 9, "corrupt-artifact");
    (P.Timeout, 10, "timeout");
    (P.Server_error, 11, "server-error");
    (P.Overloaded, 12, "overloaded");
    (P.Unavailable, 13, "unavailable");
  ]

let test_golden_error_codes () =
  List.iter
    (fun (code, wire, name) ->
      check_str "code name" name (P.error_code_to_string code);
      let b = P.encode_frame (P.Error { P.code; detail = "d" }) in
      (* the code is the payload's first byte *)
      Alcotest.(check int) (name ^ " wire byte") wire (Bytes.get_uint8 b P.header_bytes);
      match P.decode_string (Bytes.to_string b) with
      | Ok [ P.Error e ] -> check (name ^ " decodes") true (e.P.code = code)
      | _ -> Alcotest.failf "%s: error frame did not decode" name)
    golden_error_codes;
  List.iter
    (fun byte ->
      let b = P.encode_frame (P.Error { P.code = P.Unavailable; detail = "d" }) in
      Bytes.set_uint8 b P.header_bytes byte;
      Reseal.frame b;
      match P.decode_string (Bytes.to_string b) with
      | Error e ->
          check_str "out-of-range code" "malformed" (P.error_code_to_string e.P.code);
          check_str "out-of-range detail" "bad error code" e.P.detail
      | Ok _ -> Alcotest.failf "error code byte %d decoded Ok" byte)
    [ List.length golden_error_codes; 255 ]

let test_huge_length_oversized () =
  (* a length field >= 2^31 is a large unsigned length, never a
     negative one *)
  List.iter
    (fun plen ->
      let b = P.encode_frame P.Begin_trace in
      Bytes.set_int32_le b 6 (Int32.of_int plen);
      match P.scan_at b ~pos:0 ~len:(Bytes.length b) with
      | P.Scan_fail { P.code = P.Oversized; detail } ->
          check_str "oversized detail"
            (Printf.sprintf "payload of %d bytes exceeds limit %d" plen
               P.default_max_frame)
            detail
      | P.Scan_fail e ->
          Alcotest.failf "length %d: %s" plen (P.error_code_to_string e.P.code)
      | P.Scan_need n -> Alcotest.failf "length %d: asked for %d bytes" plen n
      | P.Scan_frame _ -> Alcotest.failf "length %d: scanned a frame" plen)
    [ 0x8000_0000; 0xFFFF_FFFF ]

let on_options =
  let module An = Ipds_correlation.Analysis in
  { An.default_options with An.precision = An.precision_on }

(* The same built-ins with feasible-path refinement on. *)
let golden_artifacts_on =
  [
    ("telnetd", "31b3e96470541a41a4f764c21d42c6fd22338919d0d1d9076dbb5905c050d5a8");
    ("wu-ftpd", "09c6c3986f57a4f1d47f5db474d50c7477bee1571e0599b7e27581ac241307d8");
    ("xinetd", "0714c14860dc554e31416e815ab1ce37d5a3e1f9fc6cec684bc4312a2803ce7d");
    ("crond", "1aea77dc89d36f8fb34fbfae1da0fdc5caef580a8c9a25cd31b72fc237d35a8a");
    ("sysklogd", "9facca8d6540471e43d469d04f752bc7132c0f010a9c0a15e4b50d04290b7c9c");
    ("atftpd", "e53bc5778694e20a9a8d6efdec9e9df996f60ef22a4b1e2ebf3f134914832227");
    ("httpd", "dd7e33148830608ce2d931bfa52cf73f574dd035d0da20900c9f755dfd97bb81");
    ("sendmail", "76abaa534b58b3d1ffa89fc94935f4466500e9dcfe12d1e4a377d2a312de9258");
    ("sshd", "44ff182c228986c42f778d5e99dd778d2719233cc6dffbedb8cff28fffef6e0a");
    ("portmap", "8e40db15ccd69ab0a6027ea54796988e9599a9dc11d366ba03d4608e68d457e6");
    ("fwpolicyd", "a0dec57bde610296ab4ca153725a768c26cb70e576e72b3be8e1c6107a97ab0d");
  ]

let check_artifacts ?options ~label golden =
  List.iter
    (fun (w : W.t) ->
      let sys = W.system ?options w in
      let got = sha (Ipds_artifact.Artifact.to_bytes sys) in
      match List.assoc_opt w.W.name golden with
      | Some want -> check_str (label ^ " " ^ w.W.name) want got
      | None -> Alcotest.failf "no golden hash for %s %s (got %s)" label w.W.name got)
    W.all

let test_golden_artifacts () = check_artifacts ~label:"artifact" golden_artifacts

let test_golden_artifacts_on () =
  check_artifacts ~options:on_options ~label:"precision-on artifact"
    golden_artifacts_on

(* Generated members reach analysis shapes the built-ins do not: one
   SHA-256 over the artifact hashes of the first [gen_members] seed-2006
   members, per precision. *)
let gen_members = 64

let golden_gen =
  [
    ("off", "0b3b205156d39c9a4e013e072d36c320917b4a9fb4b660fd3d73593d63590943");
    ("on", "10c4f9e7f4d508e9d38df403eed4ef469d9123fb6d6255549b6fa128a636da1e");
  ]

let test_golden_gen () =
  List.iter
    (fun (label, options) ->
      let b = Buffer.create (64 * gen_members) in
      for index = 0 to gen_members - 1 do
        let sys =
          Core.System.build ~options (Ipds_gen.Gen.compile ~seed:2006 ~index ())
        in
        Buffer.add_string b (sha (Ipds_artifact.Artifact.to_bytes sys))
      done;
      check_str ("generated members, precision " ^ label)
        (List.assoc label golden_gen)
        (Ipds_core.Sha256.hex_string (Buffer.contents b)))
    [ ("off", Ipds_correlation.Analysis.default_options); ("on", on_options) ]

(* ---------- strings against the reference ---------- *)

(* [Writer.push_string] and [Reader.pull_string] move whole words
   shifted by the stream's bit offset: every offset 0–7, lengths 0–100
   and 4 KB, bytes identical to the reference's one 8-bit field per
   byte, read back through a span with foreign bytes on both sides. *)
let test_strings_vs_ref () =
  let lens = List.init 101 Fun.id @ [ 4096 ] in
  List.iter
    (fun n ->
      let s = String.init n (fun i -> Char.chr (((i * 131) + n) land 0xFF)) in
      for off = 0 to 7 do
        let lead = 0x5A land ((1 lsl off) - 1) in
        let w = Bs.Writer.create () and rw = Ref.Writer.create () in
        Bs.Writer.push w ~width:off lead;
        Ref.Writer.push rw ~width:off lead;
        Bs.Writer.push_string w s;
        String.iter (fun c -> Ref.Writer.push rw ~width:8 (Char.code c)) s;
        Bs.Writer.push w ~width:5 21;
        Ref.Writer.push rw ~width:5 21;
        let bytes = Bs.Writer.contents w in
        let label = Printf.sprintf "length %d at offset %d" n off in
        check (label ^ ": bytes") true (Bytes.equal bytes (Ref.Writer.contents rw));
        check (label ^ ": bits") true
          (Bs.Writer.bits_written w = Ref.Writer.bits_written rw);
        let blitted = Bytes.make (Bytes.length bytes + 4) '\xee' in
        Bs.Writer.blit_contents w blitted 2;
        check (label ^ ": blit_contents") true
          (Bytes.equal (Bytes.sub blitted 2 (Bytes.length bytes)) bytes
          && Bytes.get blitted 1 = '\xee'
          && Bytes.get blitted (Bytes.length bytes + 2) = '\xee');
        let len = Bytes.length bytes in
        let buf = Bytes.make (len + 11) '\xa5' in
        Bytes.blit bytes 0 buf 3 len;
        let r = Bs.Reader.of_span buf ~pos:3 ~len in
        check (label ^ ": lead") true (Bs.Reader.pull r ~width:off = lead);
        check_str (label ^ ": string") s (Bs.Reader.pull_string r n);
        check (label ^ ": trailer") true (Bs.Reader.pull r ~width:5 = 21);
        (* one bit short of the string: refused before anything is read *)
        if n > 0 then begin
          let r = Bs.Reader.of_span buf ~pos:3 ~len:((off + (8 * n) - 1) / 8) in
          ignore (Bs.Reader.pull r ~width:off);
          let left = Bs.Reader.bits_left r in
          check (label ^ ": short is Past_end") true
            (match Bs.Reader.pull_string r n with
            | _ -> false
            | exception Bs.Past_end -> Bs.Reader.bits_left r = left)
        end
      done)
    lens;
  check "negative length" true
    (match Bs.Reader.pull_string (Bs.Reader.of_bytes (Bytes.make 4 'x')) (-1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- Branch_events against the reference codec ---------- *)

(* [Wire_ref] is the two-walk encoder and the closure-per-event walker
   the fused codec replaced.  Payload bytes must be identical, and the
   new decoder — through [decode_span]'s list and through
   [iter_branch_events] — must give the reference's events or the same
   refusal detail on any span. *)

let events_payload evs =
  let b = P.encode_frame (P.Branch_events evs) in
  Bytes.sub b P.header_bytes (Bytes.length b - P.header_bytes - P.trailer_bytes)

let decode_list buf ~pos ~len =
  match P.decode_span P.branch_events_tag buf ~pos ~len with
  | Ok (P.Branch_events evs) -> Ok evs
  | Ok _ -> Error "decoded to another frame kind"
  | Error e -> Error e.P.detail

let decode_iter buf ~pos ~len =
  let evs = ref [] in
  let ev pc kind = evs := { Event.fname = ""; iid = 0; pc; kind } :: !evs in
  match
    P.iter_branch_events buf ~pos ~len
      ~on_call:(fun callee -> ev 0 (Event.Call { callee }))
      ~on_ret:(fun () -> ev 0 Event.Ret)
      ~on_branch:(fun ~pc ~taken -> ev pc (Event.Branch { taken; target_pc = 0 }))
      ~on_other:(fun () -> failwith "on_other called")
  with
  | n when n = List.length !evs -> Ok (List.rev !evs)
  | n -> Error (Printf.sprintf "count %d for %d events" n (List.length !evs))
  | exception Core.Bitstream.Past_end -> Error "payload ends prematurely"
  | exception P.Malformed_payload m -> Error m

(* Both decoders on [payload] placed inside foreign bytes, against the
   reference on the same span. *)
let decoders_agree payload =
  let len = Bytes.length payload in
  let buf = Bytes.make (len + 16) '\xff' in
  Bytes.blit payload 0 buf 5 len;
  let want = Wire_ref.decode buf ~pos:5 ~len in
  decode_list buf ~pos:5 ~len = want && decode_iter buf ~pos:5 ~len = want

let codecs_agree evs =
  let payload = events_payload evs in
  Bytes.equal payload (Wire_ref.payload evs)
  && decoders_agree payload
  && Wire_ref.decode payload ~pos:0 ~len:(Bytes.length payload)
     = Ok (Gen.wire_normal evs)

let prop_wire_ref =
  QCheck2.Test.make ~name:"Branch_events: reference bytes and events" ~count:300
    QCheck2.Gen.(list_size (int_range 0 200) Gen.event)
    codecs_agree

(* Seeded batches for the [@wire-diff] alias ([IPDS_WIRE_BATCHES]
   raises the count): empty ones, up to 40 distinct callees with empty
   and repeated names and separately allocated copies of one name,
   extreme pcs and deltas, and event kinds the wire drops. *)
let wire_batches =
  match Sys.getenv_opt "IPDS_WIRE_BATCHES" with
  | Some n -> int_of_string n
  | None -> 2000

let callee_pool = Array.init 40 (fun i -> if i = 0 then "" else Printf.sprintf "f%d" i)

let random_batch st =
  let int = Random.State.int st in
  let n = match int 8 with 0 -> 0 | 1 -> int 2000 | _ -> int 64 in
  let names = 1 + int (Array.length callee_pool) in
  let pc () =
    match int 6 with
    | 0 -> min_int
    | 1 -> max_int
    | 2 -> Int64.to_int (Random.State.bits64 st)
    | 3 -> -int 100_000
    | _ -> 0x1000 + (4 * int 64)
  in
  List.init n (fun _ ->
      let kind =
        match int 10 with
        | 0 | 1 ->
            let s = callee_pool.(int names) in
            Event.Call { callee = (if int 2 = 0 then s else String.sub s 0 (String.length s)) }
        | 2 | 3 -> Event.Ret
        | 4 | 5 | 6 | 7 -> Event.Branch { taken = int 2 = 0; target_pc = pc () }
        | 8 -> Event.Alu
        | _ -> Event.Store { addr = pc () }
      in
      { Event.fname = "f"; iid = int 100; pc = pc (); kind })

let test_wire_random () =
  let st = Random.State.make [| 2006; 29 |] in
  for i = 1 to wire_batches do
    let evs = random_batch st in
    if not (codecs_agree evs) then
      Alcotest.failf "batch %d (%d events) differs from the reference" i (List.length evs)
  done

(* A benign run of a built-in: every event its interpreter commits. *)
let recorded_run ?(max_steps = 20_000) (w : W.t) =
  let events = ref [] in
  ignore
    (Ipds_machine.Interp.run (W.program w)
       {
         Ipds_machine.Interp.default_config with
         max_steps;
         inputs = Ipds_machine.Input_script.random ~seed:2006 ();
         record_trace = false;
         sink = Some (fun e -> events := e :: !events);
       });
  List.rev !events

let rec chunks n = function
  | [] -> []
  | l ->
      let rec take i acc = function
        | x :: rest when i < n -> take (i + 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let c, rest = take 0 [] l in
      c :: chunks n rest

let test_wire_builtins () =
  List.iter
    (fun (w : W.t) ->
      let run = recorded_run w in
      check (w.W.name ^ ": the run commits branches") true
        (List.exists
           (fun (e : Event.t) ->
             match e.Event.kind with Event.Branch _ -> true | _ -> false)
           run);
      List.iteri
        (fun i batch ->
          if not (codecs_agree batch) then
            Alcotest.failf "%s batch %d differs from the reference" w.W.name i)
        (run :: chunks Ipds_serve.Client.default_batch run))
    W.all

(* Every truncation prefix and 400 seeded one-byte edits of three
   payloads: the fixture (every kind, extreme ints, empty names), a
   [default_batch] slice of a telnetd run, and a seeded batch with many
   callees. *)
let test_wire_damage () =
  let telnetd = recorded_run (W.find "telnetd") in
  let wire = Gen.wire_normal telnetd in
  let slice =
    List.filteri (fun i _ -> i < Ipds_serve.Client.default_batch) wire
  in
  let many =
    let st = Random.State.make [| 29 |] in
    let rec find () =
      let b = random_batch st in
      if List.length b >= 40 then b else find ()
    in
    find ()
  in
  let st = Random.State.make [| 2006 |] in
  List.iter
    (fun (label, evs) ->
      let payload = events_payload evs in
      let len = Bytes.length payload in
      for cut = 0 to len do
        if not (decoders_agree (Bytes.sub payload 0 cut)) then
          Alcotest.failf "%s: the %d-byte prefix decodes unlike the reference" label cut
      done;
      for _ = 1 to 400 do
        let edited = Bytes.copy payload in
        let i = Random.State.int st len in
        let v = Random.State.int st 256 in
        Bytes.set_uint8 edited i v;
        if not (decoders_agree edited) then
          Alcotest.failf "%s: byte %d set to %d decodes unlike the reference" label i v
      done)
    [ ("fixture", fixture_events); ("telnetd slice", slice); ("many callees", many) ]

(* The cases the C kernels treat specially, each against the
   reference: the extreme pcs and the nine-group varints their deltas
   take, a ten-group varint, a callee index equal to the name count,
   and a payload long enough for the 8-byte loads cut 1–8 bytes short
   (every cut runs the tail of the unpack's byte-at-a-time refill). *)
let test_wire_kernel_edges () =
  let branch pc = ev "f" 0 pc (Event.Branch { taken = pc land 1 = 0; target_pc = 0 }) in
  let call callee = ev "f" 0 0 (Event.Call { callee }) in
  let extremes =
    List.map branch [ max_int; min_int; 0; min_int; max_int; -1; max_int; 1 ]
  in
  check "extreme pcs: bytes and events" true (codecs_agree extremes);
  (* the delta min_int − 0 zigzags to 2^63 − 1: nine full groups, so
     2 + 72 event bits in 10 bytes after the 2-byte header *)
  let nine = events_payload [ branch min_int ] in
  check "nine-group varint" true (Bytes.length nine = 12 && decoders_agree nine);
  let header ~n names =
    let w = Bs.Writer.create () in
    let varint v =
      let rec go v =
        if v lsr 7 = 0 then Bs.Writer.push w ~width:8 v
        else begin
          Bs.Writer.push w ~width:8 (v land 0x7F lor 0x80);
          go (v lsr 7)
        end
      in
      go v
    in
    varint n;
    varint (List.length names);
    List.iter
      (fun s ->
        varint (String.length s);
        Bs.Writer.push_string w s)
      names;
    (w, varint)
  in
  let refused want payload =
    let len = Bytes.length payload in
    check ("refused: " ^ want) true
      (Wire_ref.decode payload ~pos:0 ~len = Error want && decoders_agree payload)
  in
  (let w, _ = header ~n:1 [] in
   Bs.Writer.push w ~width:2 2;
   for _ = 1 to 9 do
     Bs.Writer.push w ~width:8 0xFF
   done;
   Bs.Writer.push w ~width:8 0x01;
   refused "varint too long" (Bs.Writer.contents w));
  (let w, varint = header ~n:2 [ "f"; "g" ] in
   Bs.Writer.push w ~width:2 0;
   varint 1;
   Bs.Writer.push w ~width:2 0;
   varint 2;
   refused "bad callee index" (Bs.Writer.contents w));
  let long =
    List.init 200 (fun i ->
        if i mod 7 = 0 then call (Printf.sprintf "f%d" (i mod 3))
        else if i mod 5 = 0 then ev "f" 0 0 Event.Ret
        else branch (0x1000 + (i * 4 * (i mod 11))))
  in
  let payload = events_payload long in
  let len = Bytes.length payload in
  (* zero bytes past the span read as calls of name 0: a decoder that
     loads past the span's end decodes them instead of refusing *)
  let within_zeros cut =
    let l = Bytes.length cut in
    let buf = Bytes.make (l + 16) '\000' in
    Bytes.blit cut 0 buf 5 l;
    decode_list buf ~pos:5 ~len:l = Error "payload ends prematurely"
    && decode_iter buf ~pos:5 ~len:l = Error "payload ends prematurely"
  in
  for short = 1 to 8 do
    let cut = Bytes.sub payload 0 (len - short) in
    check
      (Printf.sprintf "cut %d bytes short" short)
      true
      (decoders_agree cut
      && within_zeros cut
      && Wire_ref.decode cut ~pos:0 ~len:(len - short)
         = Error "payload ends prematurely")
  done

let () =
  Alcotest.run "codec"
    [
      ( "bitstream",
        [
          QCheck_alcotest.to_alcotest prop_matches_oracle;
          Alcotest.test_case "span reader" `Quick test_span_reader;
          Alcotest.test_case "width and fit checks" `Quick test_checks_kept;
          Alcotest.test_case "strings at every offset" `Quick test_strings_vs_ref;
        ] );
      ( "wire-ref",
        [
          QCheck_alcotest.to_alcotest prop_wire_ref;
          Alcotest.test_case "seeded batches" `Quick test_wire_random;
          Alcotest.test_case "built-in runs" `Quick test_wire_builtins;
          Alcotest.test_case "truncations and edits" `Quick test_wire_damage;
          Alcotest.test_case "C kernel edge cases" `Quick test_wire_kernel_edges;
        ] );
      ( "golden",
        [
          Alcotest.test_case "wire v2 frames" `Quick test_golden_frames;
          Alcotest.test_case "wire payloads" `Quick test_golden_payloads;
          Alcotest.test_case "artifact v4 built-ins" `Quick test_golden_artifacts;
          Alcotest.test_case "artifact v4 built-ins, precision on" `Quick
            test_golden_artifacts_on;
          Alcotest.test_case "artifact v4 generated members" `Quick test_golden_gen;
          Alcotest.test_case "wire v1 error codes" `Quick test_golden_error_codes;
          Alcotest.test_case "length >= 2^31 is oversized" `Quick
            test_huge_length_oversized;
        ] );
    ]
