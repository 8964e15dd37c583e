(* CLI smoke test (the @cli-smoke alias, wired into runtest): drive the
   ipds executable, whose path is the first argument, through every
   subcommand a user reaches first, and check what it prints and how
   it exits.

     - servers lists every built-in workload;
     - analyze prints the per-pass table; compile -o writes an object
       file that inspect reports on;
     - run gives the same output on @telnetd and on its .ipds file;
     - attack (jobs 2; mem is the alias of arbitrary), perf and trace;
     - --metrics-out writes {manifest, metrics, runtime} and --events
       names the attack model;
     - serve --socket in the background, at --jobs 1 and 2, answers
       check-remote --socket with matching verdicts and exits 0 within
       2 s of SIGTERM;
     - fleet --shards 2 under IPDS_EVENTS keeps its events file to
       itself: every line parses and the first is the fleet manifest;
     - bad flag values exit with a usage code, not a crash. *)

module J = Ipds_obs.Json

let exe = Sys.argv.(1)
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "CLI-SMOKE FAIL: %s\n%!" msg)
    fmt

let expect cond fmt =
  Printf.ksprintf (fun msg -> if not cond then fail "%s" msg) fmt

let dir =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ipds-cli-smoke-%d" (Unix.getpid ()))
  in
  Unix.mkdir d 0o700;
  d

let path name = Filename.concat dir name

(* The child sees none of the ambient knobs, so it runs in memory at
   the CLI's defaults whatever the caller's environment. *)
let env =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not
           (List.exists
              (fun p -> String.starts_with ~prefix:p kv)
              [ "IPDS_CACHE_DIR="; "IPDS_EVENTS="; "IPDS_JOBS=" ]))
  |> Array.of_list

let read_file p = In_channel.with_open_bin p In_channel.input_all

let spawn ?(out = "/dev/null") ?(env = env) args =
  let fd_out = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o600 in
  let fd_err =
    Unix.openfile (path "stderr") [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o600
  in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: args))
      env Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  pid

(* Polls every 50 ms, for up to 10 s, until [cond ()] holds. *)
let await cond =
  let rec go n =
    if cond () then true
    else if n = 0 then false
    else (Unix.sleepf 0.05; go (n - 1))
  in
  go 200

let wait pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + s

(* [pid]'s exit code if it exits within [secs] seconds. *)
let wait_within secs pid =
  let deadline = Unix.gettimeofday () +. secs in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        poll ()
    | 0, _ -> None
    | _, (Unix.WEXITED c) -> Some c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Some (128 + s)
  in
  poll ()

(* [args] run to completion: exit code and stdout. *)
let run args =
  let out = path "stdout" in
  let code = wait (spawn ~out args) in
  (code, read_file out)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  go 0

let ok what args =
  let code, out = run args in
  expect (code = 0) "%s: exit %d (stderr: %s)" what code (read_file (path "stderr"));
  out

let expect_in what out sub = expect (contains out sub) "%s: no %S in output" what sub

let () =
  let out = ok "servers" [ "servers" ] in
  List.iter
    (fun (w : Ipds_workloads.Workloads.t) -> expect_in "servers" out ("@" ^ w.name))
    Ipds_workloads.Workloads.all;
  let out = ok "analyze" [ "analyze"; "@telnetd" ] in
  expect_in "analyze" out "checked 7 of 18 branches";
  expect_in "analyze" out "per-pass breakdown";
  List.iter (expect_in "analyze pass table" out)
    [ "layout"; "prepare"; "digest"; "analyze"; "refine"; "tables" ];
  let obj = path "telnetd.ipds" in
  let out = ok "compile" [ "compile"; "@telnetd"; "-o"; obj ] in
  expect_in "compile" out "(2 functions, 7/18 branches checked)";
  expect_in "compile" out "per-pass breakdown";
  let out = ok "inspect" [ "inspect"; obj ] in
  expect_in "inspect" out "IPDS object file";
  expect_in "inspect" out "func main";
  let from_source = ok "run @telnetd" [ "run"; "@telnetd" ] in
  let from_object = ok "run .ipds" [ "run"; obj ] in
  expect_in "run" from_source "alarms: none";
  expect (String.equal from_source from_object)
    "run: @telnetd and its .ipds file print different output";
  let events = path "attack.jsonl" in
  let attack =
    ok "attack"
      [ "attack"; "@telnetd"; "-n"; "5"; "--jobs"; "2"; "--events"; events ]
  in
  expect
    (String.equal attack
       "attacks injected: 5\nchanged control flow: 2\ndetected by IPDS: 2\n")
    "attack: unexpected output %S" attack;
  expect_in "attack events" (read_file events)
    {|"workload":"@telnetd","model":"arbitrary","attacks":5|};
  let mem =
    ok "attack --model mem" [ "attack"; "@telnetd"; "-n"; "5"; "--model"; "mem" ]
  in
  expect (String.equal mem attack) "attack: mem and arbitrary differ";
  expect_in "perf" (ok "perf" [ "perf"; "@telnetd" ]) "normalized: 1.0000";
  let out = ok "trace" [ "trace"; "@telnetd"; "--limit"; "3" ] in
  expect_in "trace" out "... (truncated)";
  expect_in "trace" out "(158 branches, 0 alarms)";
  let metrics = path "metrics.json" in
  ignore (ok "analyze --metrics-out" [ "analyze"; "@telnetd"; "--metrics-out"; metrics ]);
  (match J.of_string (read_file metrics) with
  | doc ->
      List.iter
        (fun k -> expect (J.member k doc <> None) "metrics-out: no %s section" k)
        [ "manifest"; "metrics"; "runtime" ];
      expect
        (J.member "command" (Option.value (J.member "manifest" doc) ~default:J.Null)
        = Some (J.String "analyze"))
        "metrics-out: manifest does not name the command"
  | exception J.Parse_error msg -> fail "metrics-out does not parse: %s" msg);
  (* a server in the background, checked against in-process verdicts;
     SIGTERM may land on any of its threads, reactor 0's among them,
     and must still stop it cleanly within 2 s *)
  List.iter
    (fun jobs ->
      let sock = path (Printf.sprintf "s%d.sock" jobs) in
      let server =
        spawn [ "serve"; "--socket"; sock; "--jobs"; string_of_int jobs ]
      in
      if await (fun () -> Sys.file_exists sock) then begin
        let out = ok "check-remote" [ "check-remote"; "@telnetd"; "--socket"; sock ] in
        expect_in "check-remote" out "remote verdicts match"
      end
      else fail "serve --jobs %d: socket %s never appeared" jobs sock;
      Unix.kill server Sys.sigterm;
      match wait_within 2. server with
      | Some code ->
          expect (code = 0) "serve --jobs %d: exit %d on SIGTERM" jobs code
      | None ->
          Unix.kill server Sys.sigkill;
          ignore (wait server);
          fail "serve --jobs %d: still running 2 s after SIGTERM" jobs)
    [ 1; 2 ];
  (* the shards of a fleet launched under IPDS_EVENTS must not open the
     launcher's events file: each would truncate it and write its own
     serve manifest over the launcher's *)
  let events = path "fleet.jsonl" and fsock = path "f.sock" in
  let fout = path "fleet.out" in
  let fleet =
    spawn ~out:fout
      ~env:(Array.append env [| "IPDS_EVENTS=" ^ events |])
      [ "fleet"; "--shards"; "2"; "--socket"; fsock ]
  in
  if
    await (fun () ->
        Sys.file_exists (fsock ^ ".0")
        && Sys.file_exists (fsock ^ ".1")
        && contains (read_file fout) "shard 1 at")
  then begin
    (* the launcher installs its SIGTERM handler just after that line *)
    Unix.sleepf 0.2;
    Unix.kill fleet Sys.sigterm;
    match wait_within 5. fleet with
    | Some code -> expect (code = 0) "fleet: exit %d on SIGTERM" code
    | None ->
        Unix.kill fleet Sys.sigkill;
        ignore (wait fleet);
        fail "fleet: still running 5 s after SIGTERM"
  end
  else begin
    Unix.kill fleet Sys.sigkill;
    ignore (wait fleet);
    fail "fleet --shards 2: shard sockets never appeared"
  end;
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file events))
  in
  List.iter
    (fun l ->
      match J.of_string l with
      | _ -> ()
      | exception J.Parse_error msg -> fail "fleet events: %S does not parse: %s" l msg)
    lines;
  (match lines with
  | first :: _ -> (
      match J.of_string first with
      | doc ->
          expect
            (Option.bind (J.member "manifest" doc) (J.member "command")
            = Some (J.String "fleet"))
            "fleet events: first line %S is not the fleet manifest" first
      | exception J.Parse_error _ -> ())
  | [] -> fail "fleet events: file is empty");
  (* bad values: the CLI's own checks exit 2, cmdliner's parse errors 124 *)
  List.iter
    (fun (code, args) ->
      let got, _ = run args in
      expect (got = code) "%s: exit %d, expected %d" (String.concat " " args) got
        code)
    [
      (2, [ "serve"; "--socket"; path "never.sock"; "--cache-slots"; "0" ]);
      (2, [ "serve"; "--socket"; path "never.sock"; "--jobs"; "0" ]);
      (2, [ "fleet"; "--socket"; path "never.sock"; "--jobs"; "0" ]);
      (2, [ "fleet"; "--socket"; path "never.sock"; "--shards"; "0" ]);
      (2, [ "fleet"; "--socket"; path "never.sock"; "--cache-slots"; "0" ]);
      (2, [ "check-remote"; "@telnetd"; "--socket"; path "s1.sock"; "--batch"; "0" ]);
      (2, [ "check-remote"; "@telnetd"; "--socket"; path "s1.sock"; "--shards"; "0" ]);
      (124, [ "attack"; "@telnetd"; "--model"; "bogus" ]);
    ];
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  if !failures > 0 then begin
    Printf.eprintf "cli smoke: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "cli smoke OK"
