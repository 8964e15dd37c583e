(* Store fault-handling smoke test (@store-fault-smoke):

   Every way the artifact cache can rot or the filesystem can refuse
   service must surface as a typed miss/failure plus a counter — never
   a crash, never a silent lie:
   - a truncated entry is a corrupt miss and is repaired by the next
     publish;
   - a read fault on an entry that exists (a directory squatting on the
     entry path; EACCES when not root) counts as corrupt, distinct from
     a plain cold miss;
   - a publish into a blocked prefix (regular file where the shard
     directory belongs; read-only dir when not root) is a counted
     failed publish, and publish_system still does not raise;
   - short or hostile keys — remotely reachable through the artifact
     fetch/push frames — are typed unknown-artifact replies over the
     wire and typed misses in the library, with the server still
     serving afterwards.

   chmod-based faults are skipped under root (root bypasses permission
   bits), so the squatter faults above carry the determinism. *)

module A = Ipds_artifact.Artifact
module Store = Ipds_artifact.Store
module P = Ipds_serve.Protocol
module Server = Ipds_serve.Server
module Client = Ipds_serve.Client
module Core = Ipds_core
module W = Ipds_workloads.Workloads

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "STORE FAULT SMOKE FAIL: %s\n%!" msg;
      exit 1)
    fmt

let section title = Printf.printf "--- %s ---\n%!" title

let temp_path suffix =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ipds-store-fault-%d%s" (Unix.getpid ()) suffix)

let rm_rf path =
  ignore (Sys.command (Printf.sprintf "chmod -R u+rwx %s 2>/dev/null; rm -rf %s"
                         (Filename.quote path) (Filename.quote path)))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let buf = really_input_string ic n in
  close_in ic;
  buf

let is_root = Unix.geteuid () = 0

let () =
  let dir = temp_path "-store" in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Store.create ~dir in
  let image = A.to_bytes (W.system (W.find "telnetd")) in
  let c0 () = Store.counters () in

  section "1: truncated entry -> corrupt miss, repaired by republish";
  let key = "fault-truncated" in
  (match Store.publish_image store key image with
  | `Stored -> ()
  | _ -> fail "seed publish did not store");
  let path = Store.path_of_key store key in
  let whole = read_file path in
  write_file path (String.sub whole 0 (String.length whole / 3));
  let before = c0 () in
  if Store.load_system store key <> None then
    fail "truncated entry served as a hit";
  let after = c0 () in
  if after.Store.corrupt - before.Store.corrupt < 1 then
    fail "truncated entry not counted corrupt";
  (match Store.publish_image store key image with
  | `Stored -> ()
  | `Duplicate -> fail "truncated entry byte-compared as a duplicate"
  | `Collision -> fail "truncated entry misread as a collision"
  | `Failed m -> fail "repair publish failed: %s" m);
  (match Store.fetch_image store key with
  | `Image got when Bytes.equal got image -> ()
  | _ -> fail "repair did not restore the entry");
  Printf.printf "1 ok\n%!";

  section "2: read fault on an existing entry -> corrupt, not a cold miss";
  let key = "fault-unreadable" in
  ignore (Store.publish_image store key image);
  let path = Store.path_of_key store key in
  Sys.remove path;
  Unix.mkdir path 0o755;
  let before = c0 () in
  if Store.load_system store key <> None then fail "EISDIR entry served as a hit";
  (match Store.fetch_image store key with
  | `Corrupt _ -> ()
  | `Image _ -> fail "EISDIR entry fetched as an image"
  | `Miss -> fail "read fault downgraded to a plain miss");
  let after = c0 () in
  if after.Store.corrupt - before.Store.corrupt < 2 then
    fail "read faults not counted corrupt (got %d)"
      (after.Store.corrupt - before.Store.corrupt);
  if not is_root then begin
    let key = "fault-eacces" in
    ignore (Store.publish_image store key image);
    Unix.chmod (Store.path_of_key store key) 0o000;
    let before = c0 () in
    if Store.load_system store key <> None then
      fail "unreadable entry served as a hit";
    let after = c0 () in
    if after.Store.corrupt - before.Store.corrupt < 1 then
      fail "EACCES not counted corrupt"
  end;
  Printf.printf "2 ok%s\n%!" (if is_root then " (chmod leg skipped: root)" else "");

  section "3: blocked publish -> counted failure, no exception";
  let key = "pf-blocked" in
  (* a regular file squats where the 2-char shard directory belongs *)
  write_file (Filename.concat dir (String.sub key 0 2)) "squatter";
  let before = c0 () in
  (match Store.publish_image store key image with
  | `Failed _ -> ()
  | _ -> fail "publish into a blocked prefix did not fail");
  (* the system-level wrapper must swallow the same failure, counted *)
  Store.publish_system store key
    (W.system (W.find "telnetd"));
  let after = c0 () in
  if after.Store.publish_failed - before.Store.publish_failed <> 2 then
    fail "expected 2 counted publish failures, got %d"
      (after.Store.publish_failed - before.Store.publish_failed);
  if not is_root then begin
    let ro = temp_path "-ro-store" in
    Unix.mkdir ro 0o555;
    Fun.protect ~finally:(fun () -> rm_rf ro) @@ fun () ->
    let ro_store = Store.create ~dir:ro in
    let before = c0 () in
    (match Store.publish_image ro_store "ro-probe" image with
    | `Failed _ -> ()
    | _ -> fail "publish into a read-only dir did not fail");
    let after = c0 () in
    if after.Store.publish_failed - before.Store.publish_failed <> 1 then
      fail "read-only publish failure not counted"
  end;
  Printf.printf "3 ok%s\n%!" (if is_root then " (read-only-dir leg skipped: root)" else "");

  section "4: short/hostile keys over the wire -> typed replies, server lives";
  let sock = temp_path ".sock" in
  Server.with_server
    ~config:{ Server.default_config with store_dir = Some dir }
    (`Unix sock)
    (fun _server ->
      let probe key =
        (* each probe gets its own session: a typed error closes it *)
        let c = Client.connect (`Unix sock) in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            (match Client.fetch_artifact c key with
            | Error e when e.P.code = P.Unknown_artifact -> ()
            | Error e ->
                fail "fetch %S: expected unknown-artifact, got %s" key
                  (P.error_code_to_string e.P.code)
            | Ok _ -> fail "fetch %S: hostile key served" key))
      in
      List.iter probe [ "x"; ""; "../../etc/passwd"; ".."; ".hidden"; "a/b" ];
      let c = Client.connect (`Unix sock) in
      (match Client.push_artifact c ~key:"x" image with
      | Error e when e.P.code = P.Unknown_artifact -> ()
      | Error e ->
          fail "short-key push: expected unknown-artifact, got %s"
            (P.error_code_to_string e.P.code)
      | Ok _ -> fail "short-key push accepted");
      Client.close c;
      (* after all the abuse, an honest session still works end-to-end *)
      let c = Client.connect (`Unix sock) in
      (match Client.push_artifact c ~key:"post-abuse-probe" image with
      | Ok true -> ()
      | Ok false -> fail "post-abuse push reported duplicate"
      | Error e -> fail "post-abuse push failed: %s" e.P.detail);
      (match Client.fetch_artifact c "post-abuse-probe" with
      | Ok got when Bytes.equal got image -> ()
      | Ok _ -> fail "post-abuse fetch returned different bytes"
      | Error e -> fail "post-abuse fetch failed: %s" e.P.detail);
      Client.close c);
  Printf.printf "4 ok\n%!";
  print_endline "store fault smoke OK"
