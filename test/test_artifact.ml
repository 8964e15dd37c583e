(* The artifact subsystem: object-file round trips, corruption
   detection (every single byte is guarded), and the content-addressed
   store.  The save→load equivalence here is structural; the cache
   smoke test (test/cache_smoke.ml) additionally checks end-to-end
   Fig. 7/Fig. 8 equality across processes. *)

module Core = Ipds_core
module M = Ipds_machine
module A = Ipds_artifact.Artifact
module Obj = Ipds_artifact.Object_file
module Store = Ipds_artifact.Store
module W = Ipds_workloads.Workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ipds-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

(* ---------- round trip ---------- *)

(* The reconstructed [result.func] belongs to the re-parsed program
   (canonical text form) and action lists are rebuilt in table order, so
   results are compared as: same checked set, same action maps.
   [depends] is documented as lossy. *)
let norm_actions l =
  List.sort compare (List.map (fun (e, acts) -> (e, List.sort compare acts)) l)

let same_result (r1 : Ipds_correlation.Analysis.result)
    (r2 : Ipds_correlation.Analysis.result) =
  r1.Ipds_correlation.Analysis.checked = r2.Ipds_correlation.Analysis.checked
  && norm_actions r1.Ipds_correlation.Analysis.edge_actions
     = norm_actions r2.Ipds_correlation.Analysis.edge_actions
  && List.sort compare r1.Ipds_correlation.Analysis.entry_actions
     = List.sort compare r2.Ipds_correlation.Analysis.entry_actions

let test_roundtrip_all_workloads () =
  List.iter
    (fun w ->
      let sys = W.system w in
      let sys2 = A.of_bytes (A.to_bytes sys) in
      check_str "program text survives"
        (Ipds_mir.Printer.program_to_string sys.Core.System.program)
        (Ipds_mir.Printer.program_to_string sys2.Core.System.program);
      check "layout survives" true
        (Ipds_mir.Layout.entries sys.Core.System.layout
        = Ipds_mir.Layout.entries sys2.Core.System.layout);
      check_int "function count"
        (List.length sys.Core.System.funcs)
        (List.length sys2.Core.System.funcs);
      List.iter2
        (fun (n1, (i1 : Core.System.func_info)) (n2, (i2 : Core.System.func_info)) ->
          check_str "function name" n1 n2;
          check_int "entry pc" i1.entry_pc i2.entry_pc;
          (* Fig. 8 invariant: bit-identical table sizes *)
          check "table sizes bit-identical" true
            (Core.Image.sizes i1.image = Core.Image.sizes i2.image);
          (* list tables rebuilt from the reconstructed analysis result
             equal those of the original *)
          check "tables identical" true
            (Tables_ref.build ~layout:sys.Core.System.layout i1.result
            = Tables_ref.build ~layout:sys2.Core.System.layout i2.result);
          check "flat image identical" true (i1.image = i2.image);
          check "analysis result survives (minus provenance)" true
            (same_result i1.result i2.result))
        sys.Core.System.funcs sys2.Core.System.funcs)
    W.all

(* Checker equivalence: the same execution trace under a loaded system
   produces the same verdicts as under the built one. *)
let test_checker_equivalence () =
  List.iter
    (fun w ->
      let sys = W.system w in
      let sys2 = A.of_bytes (A.to_bytes sys) in
      let drive sys =
        let checker = Core.System.new_checker sys in
        let o =
          M.Interp.run sys.Core.System.program
            {
              M.Interp.default_config with
              max_steps = 30_000;
              inputs = M.Input_script.random ~seed:7 ();
              checker = Some checker;
            }
        in
        ( o.M.Interp.steps,
          o.M.Interp.branches,
          o.M.Interp.outputs,
          List.length o.M.Interp.alarms )
      in
      check (w.W.name ^ " same verdicts") true (drive sys = drive sys2))
    [ W.find "telnetd"; W.find "httpd" ]

(* ---------- SHA-256 ---------- *)

(* Both compression kernels: [bytes] takes the SHA-extension kernel
   where CPUID reports it, [portable_bytes] always takes the OCaml one.
   On a CPU without the extensions both are the OCaml kernel, and
   [main] says so before the run. *)
let sha_kernels =
  let module H = Ipds_core.Sha256 in
  [ ("dispatching", H.bytes); ("portable", H.portable_bytes) ]

(* FIPS 180-4 test vectors: the store's content addresses and the
   object-file digest both stand on this implementation, so it is
   pinned to the published vectors, not just to self-consistency. *)
let test_sha256_fips_vectors () =
  let module H = Ipds_core.Sha256 in
  List.iter
    (fun (kernel, bytes) ->
      let hex s =
        H.to_hex (bytes (Bytes.of_string s) ~pos:0 ~len:(String.length s))
      in
      let vector what want s = check_str (kernel ^ ": " ^ what) want (hex s) in
      vector "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" "";
      vector "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        "abc";
      vector "two blocks"
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
      vector "million a's"
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        (String.make 1_000_000 'a');
      (* windowed digest agrees with whole-buffer digest *)
      let buf = Bytes.of_string "xxabcyy" in
      check_str (kernel ^ ": pos/len window") (hex "abc")
        (H.to_hex (bytes buf ~pos:2 ~len:3));
      check_int (kernel ^ ": digest length") 32
        (String.length (bytes (Bytes.create 0) ~pos:0 ~len:0)))
    sha_kernels

(* [Sha256.name] length-prefixes every part, so part boundaries are
   part of the preimage: regrouping the same bytes, hiding a separator
   inside a part, or adding an empty part all give a different name. *)
let test_sha256_name_injective () =
  let module H = Ipds_core.Sha256 in
  let differ what a b = check what false (String.equal (H.name a) (H.name b)) in
  differ "regrouped parts" [ "ab"; "c" ] [ "a"; "bc" ];
  differ "NUL inside a part" [ "a\x00b" ] [ "a"; "b" ];
  differ "no part vs one empty part" [] [ "" ];
  (* the encoding itself: 8-byte big-endian length, then the bytes *)
  check_str "name [] hashes the empty string" (H.hex_string "") (H.name []);
  check_str "name [\"abc\"]"
    "c3494ca1a2cf8eeb8a11ded316fb55b83c3bbbedb6313cd50415251e5d09e12f"
    (H.name [ "abc" ])

(* Both kernels against the byte-at-a-time reference: every length
   0..1100 at every offset 0..7 covers each padding boundary
   (55/56/63/64 mod 64) and every load alignment. *)
let test_sha256_differential () =
  let module H = Ipds_core.Sha256 in
  let rng = Random.State.make [| 180; 4 |] in
  let buf = Bytes.init 1108 (fun _ -> Char.chr (Random.State.int rng 256)) in
  for pos = 0 to 7 do
    for len = 0 to 1100 do
      let want = Sha256_ref.bytes buf ~pos ~len in
      List.iter
        (fun (kernel, bytes) ->
          if not (String.equal (bytes buf ~pos ~len) want) then
            Alcotest.failf "%s kernel ~pos:%d ~len:%d differs from the reference"
              kernel pos len)
        sha_kernels
    done
  done;
  List.iter
    (fun parts -> check_str "name" (Sha256_ref.name parts) (H.name parts))
    [
      [];
      [ "" ];
      [ "ipds-func"; "abc"; String.make 200 'x' ];
      List.init 40 (fun i -> String.make i (Char.chr (65 + (i mod 26))));
    ]

(* Seeded windows of up to 16 KiB at offsets 0..63 of a buffer that
   one random byte write changes between draws, both kernels against
   the reference.  Lengths are log-uniform, so short messages and
   their padding cases are drawn as often as long ones.
   IPDS_SHA_WINDOWS sets the count: 2 000 under runtest, 1 000 000
   under the opt-in @sha-diff alias. *)
let test_sha256_windows () =
  let windows =
    match Sys.getenv_opt "IPDS_SHA_WINDOWS" with
    | Some n -> int_of_string n
    | None -> 2_000
  in
  let rng = Random.State.make [| 256; 2006 |] in
  let buf = Bytes.init (16_384 + 64) (fun _ -> Char.chr (Random.State.int rng 256)) in
  for i = 1 to windows do
    Bytes.set buf
      (Random.State.int rng (Bytes.length buf))
      (Char.chr (Random.State.int rng 256));
    let len = Random.State.int rng ((1 lsl Random.State.int rng 15) + 1) in
    let pos = Random.State.int rng 64 in
    let want = Sha256_ref.bytes buf ~pos ~len in
    List.iter
      (fun (kernel, bytes) ->
        if not (String.equal (bytes buf ~pos ~len) want) then
          Alcotest.failf "window %d: %s kernel ~pos:%d ~len:%d differs from the reference"
            i kernel pos len)
      sha_kernels
  done

(* Every function is named by SHA-256, both as built and as loaded back
   from its artifact. *)
let test_func_digests_sha256 () =
  let is_hex64 d =
    String.length d = 64
    && String.for_all
         (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
         d
  in
  List.iter
    (fun w ->
      let sys = W.system w in
      let loaded = A.of_bytes (A.to_bytes sys) in
      List.iter
        (fun (fname, (info : Core.System.func_info)) ->
          let what = w.W.name ^ "." ^ fname in
          check (what ^ " digest is 64 lowercase hex") true
            (is_hex64 info.Core.System.digest);
          check_str (what ^ " digest survives the artifact")
            info.Core.System.digest
            (Core.System.info loaded fname).Core.System.digest)
        sys.Core.System.funcs)
    W.all

(* ---------- corruption ---------- *)

(* Both decoders: the full [of_bytes] and the checker-only
   [images_of_bytes] the server loads with. *)
let decoders =
  [
    ("of_bytes", fun b -> ignore (A.of_bytes b : Core.System.t));
    ( "images_of_bytes",
      fun b -> ignore (A.images_of_bytes b : (string * Core.Image.t) list) );
  ]

let test_every_byte_flip_detected () =
  let sys = W.system (W.find "telnetd") in
  let good = A.to_bytes sys in
  List.iter
    (fun (what, decode) ->
      let undetected = ref [] in
      for i = 0 to Bytes.length good - 1 do
        let bad = Bytes.copy good in
        Bytes.set bad i (Char.chr (Char.code (Bytes.get bad i) lxor 0x40));
        match decode bad with
        | () -> undetected := i :: !undetected
        | exception A.Corrupt _ -> ()
        (* decoding must never escape with anything but Corrupt *)
        | exception e ->
            Alcotest.failf "%s, byte %d: unexpected exception %s" what i
              (Printexc.to_string e)
      done;
      check (what ^ ": every byte flip detected") true (!undetected = []))
    decoders

let test_truncation_detected () =
  let sys = W.system (W.find "crond") in
  let good = A.to_bytes sys in
  List.iter
    (fun (what, decode) ->
      List.iter
        (fun len ->
          let bad = Bytes.sub good 0 len in
          check
            (Printf.sprintf "%s: truncation to %d detected" what len)
            true
            (match decode bad with
            | () -> false
            | exception A.Corrupt _ -> true
            | exception e ->
                Alcotest.failf "%s, truncation to %d: unexpected exception %s"
                  what len (Printexc.to_string e)))
        [ 0; 4; Obj.header_bytes - 1; Obj.header_bytes; Bytes.length good - 1 ])
    decoders

(* ---------- the checker-only load ---------- *)

(* [images_of_bytes] against [of_bytes] on the same bytes: the same
   names and structurally equal images in program order, and a checker
   over those images raises the same alarms as one over the decoded
   system, on a benign run and under tamper plans that do raise some. *)
let test_images_differential () =
  let alarms_seen = ref 0 in
  let compare_on name ~model program =
    let sys = Core.System.build program in
    let bytes = A.to_bytes sys in
    let full = A.of_bytes bytes in
    let imgs = A.images_of_bytes bytes in
    check (name ^ ": same images as of_bytes") true
      (imgs
      = List.map
          (fun (n, (i : Core.System.func_info)) -> (n, i.Core.System.image))
          full.Core.System.funcs);
    let tbl = Hashtbl.create 16 in
    List.iter (fun (n, i) -> Hashtbl.replace tbl n i) imgs;
    let run ~checker tamper =
      ignore
        (M.Interp.run program
           {
             M.Interp.default_config with
             max_steps = 30_000;
             inputs = M.Input_script.random ~seed:11 ();
             checker = Some checker;
             tamper;
             record_trace = false;
           });
      Core.Checker.alarms checker
    in
    let plans =
      None
      :: List.concat_map
           (fun at_step ->
             [
               Some { M.Tamper.at_step; site = M.Tamper.Cond_flip; seed = at_step };
               Some
                 {
                   M.Tamper.at_step;
                   site = M.Tamper.Mem_write { model; value = 255 };
                   seed = at_step;
                 };
             ])
           [ 40; 150; 400; 900 ]
    in
    List.iter
      (fun tamper ->
        let want = run ~checker:(Core.System.new_checker full) tamper in
        let got = run ~checker:(Core.Checker.create ~lookup:(Hashtbl.find tbl)) tamper in
        if tamper = None then check (name ^ ": benign run is clean") true (want = []);
        alarms_seen := !alarms_seen + List.length want;
        check (name ^ ": same alarms") true (got = want))
      plans
  in
  List.iter
    (fun w ->
      let model =
        match W.tamper_model w with
        | `Stack_overflow -> M.Tamper.Stack_overflow
        | `Arbitrary_write -> M.Tamper.Arbitrary_write
      in
      compare_on w.W.name ~model (W.program w))
    W.all;
  for index = 0 to 5 do
    compare_on
      (Printf.sprintf "gen member %d" index)
      ~model:M.Tamper.Arbitrary_write
      (Ipds_gen.Gen.compile ~seed:19 ~index ())
  done;
  check "the tamper plans raised alarms to compare" true (!alarms_seen > 0)

(* The deliberate split between the two load paths.  A container whose
   code section is rewritten and re-digested still loads for checking
   through [Load_image], which never reads code; the same bytes are
   refused by [Push_artifact], which verifies fully before publishing
   them to the store. *)
let test_code_section_split () =
  let good = A.to_bytes (W.system (W.find "telnetd")) in
  let rewritten =
    Reseal.container ~section:"code" (Bytes.of_string "not a program") good
  in
  check "of_bytes rejects the rewritten code" true
    (match A.of_bytes rewritten with
    | _ -> false
    | exception A.Corrupt _ -> true);
  check "images_of_bytes still loads it" true
    (A.images_of_bytes rewritten = A.images_of_bytes good);
  let module P = Ipds_serve.Protocol in
  let module Session = Ipds_serve.Session in
  with_temp_dir (fun dir ->
      let replies = ref [] in
      let send f = replies := f :: !replies in
      let session () =
        Session.create ~store:(Some (Store.create ~dir))
          ~cache:(Ipds_parallel.Memo.create ~capacity:1 ())
          ()
      in
      let image = Bytes.to_string rewritten in
      let s = session () in
      check "Load_image continues" true
        (Session.handle s ~send (P.Load_image { name = "telnetd"; image })
        = `Continue);
      (match !replies with
      | [ P.Loaded { name = "telnetd"; cached = false } ] -> ()
      | _ -> Alcotest.fail "Load_image: expected one Loaded reply");
      replies := [];
      let s = session () in
      check "Push_artifact closes" true
        (Session.handle s ~send (P.Push_artifact { key = "split-probe"; image })
        = `Close);
      match !replies with
      | [ P.Error { P.code = P.Corrupt_artifact; _ } ] -> ()
      | _ -> Alcotest.fail "Push_artifact: expected one corrupt-artifact error")

(* A code section whose integer literal does not fit an int must be
   refused as [Corrupt] (a typed store miss), not as an escaping
   [Failure]. *)
let overlong_literal_code = "func main() {\n e:\n  r0 = 99999999999999999999999\n  halt\n}\n"

let test_overlong_literal_is_corrupt () =
  let bad =
    Reseal.container ~section:"code"
      (Bytes.of_string overlong_literal_code)
      (A.to_bytes (W.system (W.find "telnetd")))
  in
  check_str "of_bytes raises Corrupt"
    "code section: line 3: integer literal out of range"
    (match A.of_bytes bad with
    | _ -> "decoded"
    | exception A.Corrupt m -> m);
  with_temp_dir (fun dir ->
      Store.reset_counters ();
      let store = Store.create ~dir in
      let key = "overlong-literal-probe" in
      check "publish_image stores it" true (Store.publish_image store key bad = `Stored);
      check "load_system misses" true (Store.load_system store key = None);
      check "fetch_image is typed corrupt" true
        (match Store.fetch_image store key with
        | `Corrupt _ -> true
        | `Image _ | `Miss -> false);
      let c = Store.counters () in
      check_int "counted corrupt" 2 c.Store.corrupt;
      check_int "counted misses" 2 c.Store.misses)

let test_inspect_reports_damage () =
  let sys = W.system (W.find "telnetd") in
  let good = A.to_bytes sys in
  let ins = A.inspect_bytes good in
  check "digest ok on good file" true ins.A.file.Obj.digest_ok;
  check "all section CRCs ok" true
    (List.for_all (fun s -> s.Obj.s_crc_ok) ins.A.file.Obj.sections);
  check "functions decodable" true (ins.A.funcs <> None);
  (* flip one byte inside the first section's payload *)
  let first = List.hd ins.A.file.Obj.sections in
  let bad = Bytes.copy good in
  let i = first.Obj.s_offset + (first.Obj.s_length / 2) in
  Bytes.set bad i (Char.chr (Char.code (Bytes.get bad i) lxor 1));
  let ins2 = A.inspect_bytes bad in
  check "digest mismatch reported" false ins2.A.file.Obj.digest_ok;
  check "bad CRC localized to the damaged section" true
    (List.exists
       (fun s -> s.Obj.s_name = first.Obj.s_name && not s.Obj.s_crc_ok)
       ins2.A.file.Obj.sections)

(* ---------- files and the store ---------- *)

let test_file_roundtrip_and_sniff () =
  with_temp_dir (fun dir ->
      let sys = W.system (W.find "atftpd") in
      let path = Filename.concat dir "a.ipds" in
      A.save_file path sys;
      check "magic sniffed" true (A.is_artifact_file path);
      let sys2 = A.load_file path in
      check "file round trip" true
        (Core.System.size_stats sys2 = Core.System.size_stats sys);
      let text = Filename.concat dir "not-an-artifact" in
      let oc = open_out text in
      output_string oc "just text\n";
      close_out oc;
      check "non-artifact rejected by sniff" false (A.is_artifact_file text);
      check "missing file sniffs false" false
        (A.is_artifact_file (Filename.concat dir "nope")))

let test_store_hit_miss_corrupt () =
  with_temp_dir (fun dir ->
      Store.reset_counters ();
      let store = Store.create ~dir in
      let w = W.find "sysklogd" in
      let sys = W.system w in
      let key =
        Store.key ~source:w.W.source ~promote:true
          ~options:Ipds_correlation.Analysis.default_options
      in
      check "load before publish misses" true (Store.load_system store key = None);
      Store.publish_system store key sys;
      (match Store.load_system store key with
      | None -> Alcotest.fail "expected a hit after publish"
      | Some sys2 ->
          check "stored system equivalent" true
            (Core.System.size_stats sys2 = Core.System.size_stats sys));
      (* flip a byte on disk: the entry must become a miss, not a crash *)
      let path = Store.path_of_key store key in
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let buf = Bytes.create n in
      really_input ic buf 0 n;
      close_in ic;
      Bytes.set buf (n / 2) (Char.chr (Char.code (Bytes.get buf (n / 2)) lxor 0x10));
      let oc = open_out_bin path in
      output_bytes oc buf;
      close_out oc;
      check "corrupt entry is a miss" true (Store.load_system store key = None);
      let c = Store.counters () in
      check_int "hits" 1 c.Store.hits;
      check_int "misses" 2 c.Store.misses;
      check_int "corrupt misses" 1 c.Store.corrupt;
      check "bytes accounted" true (c.Store.bytes_read > 0 && c.Store.bytes_written > 0))

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let buf = Bytes.create n in
  really_input ic buf 0 n;
  close_in ic;
  buf

let write_file path buf =
  let oc = open_out_bin path in
  output_bytes oc buf;
  close_out oc

(* An entry in any older format left over from a previous release —
   v1's monolithic tables, v2's MD5 container digest, v3's MD5 function
   digests — must read as a clean miss: counted corrupt, rebuilt, never
   a crash and never a silent misparse. *)
let test_version_skew_clean_miss () =
  let has_sub s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun version ->
      with_temp_dir (fun dir ->
          Store.reset_counters ();
          let store = Store.create ~dir in
          let w = W.find "telnetd" in
          let key =
            Store.key ~source:w.W.source ~promote:true
              ~options:Ipds_correlation.Analysis.default_options
          in
          Store.publish_system store key (W.system w);
          let path = Store.path_of_key store key in
          let buf = read_file path in
          (* rewrite the format-version field (u32 LE at offset 8) *)
          Bytes.set_int32_le buf 8 (Int32.of_int version);
          write_file path buf;
          let v = Printf.sprintf "v%d " version in
          check (v ^ "entry decodes as Corrupt") true
            (match A.of_bytes buf with
            | _ -> false
            | exception A.Corrupt msg ->
                (* the reason names the version skew, not a generic
                   failure *)
                has_sub msg "version");
          check (v ^ "entry is a clean store miss") true
            (Store.load_system store key = None);
          let c = Store.counters () in
          check_int (v ^ "skew counted corrupt") 1 c.Store.corrupt;
          check_int (v ^ "skew counted miss") 1 c.Store.misses))
    [ 1; 2; 3 ]

(* The collision-detection table: an occupied key is byte-compared on
   every publish; different valid content is counted and refused, a
   byte-identical republish is a no-op, and a damaged entry is
   repaired. *)
let test_collision_table () =
  with_temp_dir (fun dir ->
      Store.reset_counters ();
      let store = Store.create ~dir in
      let img_a = A.to_bytes (W.system (W.find "telnetd")) in
      let img_b = A.to_bytes (W.system (W.find "httpd")) in
      let key = "collision-table-probe" in
      check "first publish stores" true (Store.publish_image store key img_a = `Stored);
      check "identical republish is duplicate" true
        (Store.publish_image store key img_a = `Duplicate);
      check "different valid content collides" true
        (Store.publish_image store key img_b = `Collision);
      (* first writer wins: the original bytes are still what is served *)
      (match Store.fetch_image store key with
      | `Image got -> check "original entry kept" true (Bytes.equal got img_a)
      | `Miss | `Corrupt _ -> Alcotest.fail "entry lost after collision");
      (* a damaged entry is not a collision — it is repaired in place *)
      let path = Store.path_of_key store key in
      write_file path (Bytes.of_string "rot");
      check "damaged entry repaired" true (Store.publish_image store key img_a = `Stored);
      (match Store.fetch_image store key with
      | `Image got -> check "repair restored bytes" true (Bytes.equal got img_a)
      | `Miss | `Corrupt _ -> Alcotest.fail "repair did not restore the entry");
      let c = Store.counters () in
      check_int "exactly one collision counted" 1 c.Store.collisions;
      check_int "no publish failures" 0 c.Store.publish_failed)

(* Regression: [load_system] used to treat {e any} [Sys_error] as a
   plain miss, so an unreadable-but-present cache (EACCES, EIO, a
   directory squatting on the entry path) looked cold forever.  A
   read fault on an existing entry must count as corrupt.  The fault
   here is a directory at the entry path — deterministic even when the
   tests run as root (unlike chmod 0). *)
let test_read_fault_is_corrupt_not_miss () =
  with_temp_dir (fun dir ->
      Store.reset_counters ();
      let store = Store.create ~dir in
      let key = "fault-probe-entry" in
      ignore (Store.publish_image store key (A.to_bytes (W.system (W.find "crond"))));
      let path = Store.path_of_key store key in
      Sys.remove path;
      Unix.mkdir path 0o755;
      check "read fault is a miss, not a crash" true
        (Store.load_system store key = None);
      let c = Store.counters () in
      check_int "read fault counted corrupt" 1 c.Store.corrupt;
      (* and a genuinely absent entry stays a plain (non-corrupt) miss *)
      check "absent entry misses" true
        (Store.load_system store "fault-probe-absent" = None);
      let c2 = Store.counters () in
      check_int "absent entry not counted corrupt" 1 c2.Store.corrupt)

(* Regression: [publish_system] used to swallow [Sys_error] silently.
   A publish lost to an IO error must be counted.  The fault: a
   regular file squatting on the 2-char prefix directory, so the temp
   file creation fails with ENOTDIR — again deterministic as root. *)
let test_publish_failure_counted () =
  with_temp_dir (fun dir ->
      Store.reset_counters ();
      let store = Store.create ~dir in
      let key = "pf-probe" in
      let prefix_dir = Filename.concat dir (String.sub key 0 2) in
      write_file prefix_dir (Bytes.of_string "squatter");
      (match Store.publish_image store key (A.to_bytes (W.system (W.find "atftpd"))) with
      | `Failed _ -> ()
      | `Stored | `Duplicate | `Collision ->
          Alcotest.fail "publish into a blocked prefix dir must fail");
      Store.publish_system store key (W.system (W.find "atftpd"));
      let c = Store.counters () in
      check_int "both failed publishes counted" 2 c.Store.publish_failed)

(* Regression: [path_of_key] used to [String.sub key 0 2] without
   validation, so a short or hostile key (now remotely reachable via
   the artifact fetch/push frames) raised from deep inside the load
   path.  Key shape is validated at the boundary instead. *)
let test_malformed_keys_rejected () =
  check "short key invalid" false (Store.valid_key "x");
  check "empty key invalid" false (Store.valid_key "");
  check "traversal invalid" false (Store.valid_key "../../etc/passwd");
  check "separator invalid" false (Store.valid_key "ab/cd");
  check "leading dot invalid" false (Store.valid_key ".hidden");
  check "control byte invalid" false (Store.valid_key "ab\ncd");
  check "overlong invalid" false (Store.valid_key (String.make 129 'a'));
  check "hex digest valid" true (Store.valid_key (String.make 64 'a'));
  check "human key valid" true (Store.valid_key "fleet-telnetd_v1.2");
  with_temp_dir (fun dir ->
      Store.reset_counters ();
      let store = Store.create ~dir in
      check "malformed key loads as None, no raise" true
        (Store.load_system store "x" = None);
      check "malformed key fetch is a miss" true (Store.fetch_image store "x" = `Miss);
      (match Store.publish_image store "x" (Bytes.of_string "data") with
      | `Failed _ -> ()
      | _ -> Alcotest.fail "malformed key publish must fail");
      check "path_of_key raises on malformed key" true
        (match Store.path_of_key store "../x" with
        | _ -> false
        | exception Invalid_argument _ -> true))

(* Regression for the multicore-safety fix in Crc32: the lookup table
   used to be a top-level [lazy], and concurrent [Lazy.force] from
   several domains could raise CamlinternalLazy.Undefined.  Hammer the
   table from many domains at once and check every result agrees. *)
let test_crc_domain_stress () =
  let module Crc = Ipds_artifact.Crc32 in
  let payload = Bytes.init 8192 (fun i -> Char.chr ((i * 131 + 17) land 0xff)) in
  let domains =
    List.init 8 (fun d ->
        Domain.spawn (fun () ->
            List.init 50 (fun i ->
                Crc.bytes payload ~pos:(d + i) ~len:(4096 + d + i))))
  in
  let per_domain = List.map Domain.join domains in
  let reference d =
    List.init 50 (fun i -> Crc.bytes payload ~pos:(d + i) ~len:(4096 + d + i))
  in
  check "all domains agree with sequential reference" true
    (List.for_all2 (fun d got -> got = reference d)
       (List.init 8 Fun.id) per_domain)

(* The pass-pipeline invariant: fanning the per-function passes over a
   domain pool is invisible in the output — byte-identical .ipds
   artifacts and identical Fig. 7/Fig. 8 numbers for any job count. *)
let test_jobs_determinism () =
  List.iter
    (fun w ->
      let program = W.program w in
      let seq = Core.System.build program in
      let par =
        Ipds_parallel.Pool.with_pool ~jobs:4 (fun pool ->
            Core.System.build ~pool program)
      in
      check (w.W.name ^ ": artifact bytes identical") true
        (Bytes.equal (A.to_bytes seq) (A.to_bytes par));
      check (w.W.name ^ ": Fig. 8 numbers identical") true
        (Core.System.size_stats seq = Core.System.size_stats par);
      let fig7 sys =
        Ipds_harness.Attack_experiment.campaign ~attacks:4 ~seed:3
          ~model:
            (W.tamper_model w
              :> [ `Stack_overflow | `Arbitrary_write | `Cond_flip | `Insn_skip ])
          ~name:w.W.name sys
      in
      check (w.W.name ^ ": Fig. 7 row identical") true (fig7 seq = fig7 par))
    [ W.find "telnetd"; W.find "httpd" ]

let test_key_sensitivity () =
  let options = Ipds_correlation.Analysis.default_options in
  let k = Store.key ~source:"int main() {}" ~promote:true ~options in
  check "key is stable" true
    (k = Store.key ~source:"int main() {}" ~promote:true ~options);
  check "source changes the key" false
    (k = Store.key ~source:"int main() { out(1); }" ~promote:true ~options);
  check "promote changes the key" false
    (k = Store.key ~source:"int main() {}" ~promote:false ~options);
  check "options change the key" false
    (k
    = Store.key ~source:"int main() {}" ~promote:true
        ~options:
          { options with Ipds_correlation.Analysis.affine_tracing = false })

let () =
  Random.self_init ();
  (* [W.system] builds instead of loading from IPDS_CACHE_DIR *)
  Store.set_ambient_dir None;
  if not Ipds_core.Sha256.hardware then
    print_endline
      "sha256: this CPU has no SHA extensions; only the portable kernel ran";
  Alcotest.run "artifact"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "all workloads" `Quick test_roundtrip_all_workloads;
          Alcotest.test_case "checker equivalence" `Quick test_checker_equivalence;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "FIPS 180-4 vectors" `Quick test_sha256_fips_vectors;
          Alcotest.test_case "name is injective" `Quick test_sha256_name_injective;
          Alcotest.test_case "matches the reference" `Quick test_sha256_differential;
          Alcotest.test_case "seeded windows" `Quick test_sha256_windows;
          Alcotest.test_case "function digests are SHA-256" `Quick
            test_func_digests_sha256;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "every byte flip" `Quick test_every_byte_flip_detected;
          Alcotest.test_case "truncation" `Quick test_truncation_detected;
          Alcotest.test_case "inspect reports damage" `Quick test_inspect_reports_damage;
          Alcotest.test_case "v2 version skew is a clean miss" `Quick
            test_version_skew_clean_miss;
        ] );
      ( "checker-only load",
        [
          Alcotest.test_case "images equal of_bytes, same alarms" `Quick
            test_images_differential;
          Alcotest.test_case "rewritten code: Load_image yes, push no" `Quick
            test_code_section_split;
          Alcotest.test_case "overlong literal is Corrupt" `Quick
            test_overlong_literal_is_corrupt;
        ] );
      ( "store",
        [
          Alcotest.test_case "file round trip + sniff" `Quick test_file_roundtrip_and_sniff;
          Alcotest.test_case "hit/miss/corrupt + counters" `Quick test_store_hit_miss_corrupt;
          Alcotest.test_case "collision table" `Quick test_collision_table;
          Alcotest.test_case "read fault counted corrupt" `Quick
            test_read_fault_is_corrupt_not_miss;
          Alcotest.test_case "publish failure counted" `Quick
            test_publish_failure_counted;
          Alcotest.test_case "malformed keys rejected" `Quick
            test_malformed_keys_rejected;
          Alcotest.test_case "key sensitivity" `Quick test_key_sensitivity;
        ] );
      ( "crc32",
        [ Alcotest.test_case "domain stress" `Quick test_crc_domain_stress ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1 vs 4 byte-identical" `Quick
            test_jobs_determinism;
        ] );
    ]
