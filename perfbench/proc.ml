(* Process accounting from /proc, and the verdict-server child.

   The server always runs in a child process started from this
   executable (argv mode [serve-child]), never inside the measuring
   process: a server sharing the client's runtime swings throughput by
   2x and inflates the tail.  Each run starts its own child on a socket
   in a fresh directory under [work_dir], so no run inherits another
   run's warm cache. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* /proc/<pid>/stat utime + stime, in seconds.  The kernel reports
   them in USER_HZ ticks, which is 100 on every Linux ABI. *)
let user_hz = 100.

let cpu_seconds pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name may contain spaces; fields resume after ") " *)
  let close = String.rindex s ')' in
  let fields =
    String.split_on_char ' '
      (String.sub s (close + 2) (String.length s - close - 2))
  in
  (* fields now start at field 3 (state): utime is field 14, stime 15 *)
  let ticks i = float_of_string (List.nth fields (i - 3)) in
  (ticks 14 +. ticks 15) /. user_hz

let self_cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A "Vm...:" field of /proc/<pid>/status ([pid] 0: this process), in
   MiB. *)
let status_mb pid field =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let n = String.length field in
  let line =
    List.find
      (fun l -> String.length l > n && String.equal (String.sub l 0 n) field)
      (String.split_on_char '\n' (read_file path))
  in
  let kb =
    List.find_map int_of_string_opt
      (String.split_on_char ' ' (String.trim (String.sub line n (String.length line - n))))
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith ("unparsable status line: " ^ line)

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb pid = status_mb pid "VmHWM:"

(* Current resident set (VmRSS) of this process in MiB. *)
let rss_mb () = status_mb 0 "VmRSS:"

(* Lower this process's VmHWM to its current resident set, so a later
   [peak_rss_mb 0] covers only what runs after the call. *)
let reset_peak_rss () =
  Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc ->
      Out_channel.output_string oc "5")

(* ---------- directory the benchmark writes into ---------- *)

let work_dir = ".bench_out"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> remove_tree (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ---------- the server child ---------- *)

type server = {
  pid : int;
  ctl : Unix.file_descr;  (* closing it tells the child to stop *)
  dir : string;
  sock : string;
  mutable stopped : bool;
}

let live : server list ref = ref []
let spawned = ref 0

let stop s =
  if not s.stopped then begin
    s.stopped <- true;
    live := List.filter (fun o -> o != s) !live;
    (try Unix.close s.ctl with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 10. in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.01;
          reap ()
      | 0, _ ->
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] s.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    reap ();
    remove_tree s.dir
  end

(* A failed check exits through [exit]; the at_exit hook still stops
   and reaps every child that is alive at that point. *)
let () = at_exit (fun () -> List.iter stop !live)

let spawn () =
  incr spawned;
  let dir =
    Filename.concat work_dir
      (Printf.sprintf "run-%d-%d" (Unix.getpid ()) !spawned)
  in
  remove_tree dir;
  mkdir_p dir;
  (* relative path: sun_path holds at most 107 bytes, the checkout's
     absolute path may be longer *)
  let sock = Filename.concat dir "s" in
  let ctl_r, ctl_w = Unix.pipe ~cloexec:true () in
  let rdy_r, rdy_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "serve-child"; sock |]
      ctl_r rdy_w Unix.stderr
  in
  Unix.close ctl_r;
  Unix.close rdy_w;
  let s = { pid; ctl = ctl_w; dir; sock; stopped = false } in
  live := s :: !live;
  let buf = Bytes.create 16 in
  let rec await acc =
    match Unix.select [ rdy_r ] [] [] 20. with
    | [], _, _ -> Error "no READY from the server child within 20 s"
    | _ -> (
        match Unix.read rdy_r buf 0 (Bytes.length buf) with
        | 0 -> Error "the server child exited before READY"
        | n ->
            let acc = acc ^ Bytes.sub_string buf 0 n in
            if String.contains acc '\n' then Ok acc else await acc)
  in
  let r = await "" in
  Unix.close rdy_r;
  match r with
  | Ok line when String.equal (String.trim line) "READY" -> s
  | Ok line ->
      stop s;
      failwith (Printf.sprintf "server child said %S, not READY" line)
  | Error m ->
      stop s;
      failwith m

let with_server f =
  let s = spawn () in
  Fun.protect ~finally:(fun () -> stop s) (fun () -> f s)

(* argv mode [serve-child SOCK]: the default server configuration with
   no idle timeout, on [SOCK]; prints READY once listening and stops
   when stdin reaches EOF (the parent's pipe end is its lifetime). *)
let serve_child sock =
  Ipds_artifact.Store.set_ambient_dir None;
  let config =
    { Ipds_serve.Server.default_config with Ipds_serve.Server.session_timeout = 0. }
  in
  let t = Ipds_serve.Server.start ~config (`Unix sock) in
  print_string "READY\n";
  flush stdout;
  let buf = Bytes.create 64 in
  let rec drain () =
    match Unix.read Unix.stdin buf 0 64 with
    | 0 -> ()
    | _ -> drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  Ipds_serve.Server.stop t
