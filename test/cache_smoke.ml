(* End-to-end smoke test of the artifact cache (the @cache-smoke alias,
   wired into runtest).  One executable, two roles:

   - driver (no --phase): makes a fresh cache directory and re-executes
     itself four times — a cold run that must populate the cache, a
     warm run that must perform zero MiniC compiles and zero analyses,
     after flipping one byte in a published artifact a corrupt run
     that must detect the damage, miss, and rebuild, and after
     stamping that artifact and every function-tier blob with the
     previous format version (3) a skew run that must count each as a
     miss and rebuild the artifact byte-identical to the cold one.  All
     four phases must produce byte-identical Fig. 7/Fig. 8 reports
     (they also use different --jobs, so determinism across domain
     counts rides along).
   - phase child (--phase cold|warm|corrupt|skew): runs the experiments
     against the given cache dir, writes the rendered reports to --out,
     and asserts the phase's expected compile/build/store counters. *)

module A = Ipds_artifact.Artifact
module Obj = Ipds_artifact.Object_file
module Store = Ipds_artifact.Store
module W = Ipds_workloads.Workloads
module Core = Ipds_core

let phase = ref ""
let cache_dir = ref ""
let out = ref ""
let jobs = ref 2

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("cache-smoke: " ^ s);
      exit 1)
    fmt

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---------- phase child ---------- *)

let results ~jobs =
  let module Sweep = Ipds_harness.Sweep in
  let summary =
    Ipds_parallel.Pool.with_opt ~jobs (fun pool ->
        (List.hd (Sweep.run ~attacks:4 ~seed:11 ?pool [ Sweep.universe `Mem ]))
          .Sweep.summary)
  in
  let census = Ipds_harness.Size_census.run_all () in
  Ipds_harness.Attack_experiment.render summary
  ^ "\n"
  ^ Ipds_harness.Size_census.render census

(* The counter [store.<name>], read through the registry as a run
   report reads it. *)
let store name =
  match List.assoc_opt ("store." ^ name) (Ipds_obs.Registry.snapshot ()) with
  | Some (Ipds_obs.Registry.Counter n) -> n
  | _ -> failwith ("no counter store." ^ name)

let run_phase () =
  Store.set_ambient_dir (Some !cache_dir);
  write_file !out (results ~jobs:!jobs);
  let n = List.length W.all in
  let compiles = W.compile_count () in
  let builds = Core.System.build_count () in
  (match !phase with
  | "cold" ->
      if store "hits" <> 0 then fail "cold run hit the cache %d times" (store "hits");
      if store "misses" <> n then
        fail "cold run: %d misses, want %d" (store "misses") n;
      if store "bytes_written" = 0 then fail "cold run published nothing";
      if compiles <> n then fail "cold run: %d compiles, want %d" compiles n
  | "warm" ->
      (* the acceptance criterion: a warm process does no front-end or
         analysis work at all *)
      if compiles <> 0 then fail "warm run ran %d MiniC compiles" compiles;
      if builds <> 0 then fail "warm run ran %d analyses" builds;
      if store "misses" <> 0 then fail "warm run missed %d times" (store "misses");
      if store "hits" <> n then fail "warm run: %d hits, want %d" (store "hits") n
  | "corrupt" ->
      (* exactly one artifact was damaged: it must be detected, counted,
         and rebuilt; everything else still hits *)
      if store "corrupt" <> 1 then
        fail "corrupt run: corrupt=%d, want 1" (store "corrupt");
      if store "misses" <> 1 then
        fail "corrupt run: %d misses, want 1" (store "misses");
      if store "hits" <> n - 1 then
        fail "corrupt run: %d hits, want %d" (store "hits") (n - 1);
      if compiles <> 1 then fail "corrupt run: %d compiles, want 1" compiles;
      if builds <> 1 then fail "corrupt run: %d analyses, want 1" builds
  | "skew" ->
      (* one whole-program entry and every fn/ blob are previous-format
         leftovers at paths this format reads: each lookup of one is a
         counted corrupt miss, and only that one program is rebuilt *)
      if store "corrupt" <> 1 then
        fail "skew run: corrupt=%d, want 1" (store "corrupt");
      if store "misses" <> 1 then
        fail "skew run: %d misses, want 1" (store "misses");
      if store "hits" <> n - 1 then
        fail "skew run: %d hits, want %d" (store "hits") (n - 1);
      if store "fn_hits" <> 0 then
        fail "skew run: %d hits on stale fn blobs" (store "fn_hits");
      if store "fn_misses" = 0 || store "fn_corrupt" <> store "fn_misses" then
        fail "skew run: fn_corrupt=%d of %d fn misses, want all of them"
          (store "fn_corrupt") (store "fn_misses");
      if compiles <> 1 then fail "skew run: %d compiles, want 1" compiles;
      if builds <> 1 then fail "skew run: %d analyses, want 1" builds
  | p -> fail "unknown phase %S" p);
  exit 0

(* ---------- driver ---------- *)

let published_artifacts dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun sub ->
         let subdir = Filename.concat dir sub in
         if Sys.is_directory subdir then
           Sys.readdir subdir |> Array.to_list
           |> List.filter_map (fun f ->
                  if Filename.check_suffix f ".ipds" then
                    Some (Filename.concat subdir f)
                  else None)
         else [])
  |> List.sort compare

let driver () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ipds-cache-smoke-%d" (Unix.getpid ()))
  in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
  @@ fun () ->
  let out p = Filename.concat dir ("result-" ^ p ^ ".txt") in
  let run p jobs =
    let t0 = Unix.gettimeofday () in
    let cmd =
      Printf.sprintf "%s --phase %s --cache-dir %s --out %s --jobs %d"
        (Filename.quote Sys.executable_name)
        p (Filename.quote dir)
        (Filename.quote (out p))
        jobs
    in
    (match Sys.command cmd with
    | 0 -> ()
    | rc -> fail "phase %s exited with %d" p rc);
    Unix.gettimeofday () -. t0
  in
  let cold_s = run "cold" 2 in
  let warm_s = run "warm" 1 in
  let victim =
    match published_artifacts dir with
    | [] -> fail "cold run left no artifacts in %s" dir
    | victim :: _ -> victim
  in
  let cold_artifact = read_file victim in
  (* flip one byte in the middle of a published artifact *)
  let buf = Bytes.of_string cold_artifact in
  let i = Bytes.length buf / 2 in
  Bytes.set buf i (Char.chr (Char.code (Bytes.get buf i) lxor 0x20));
  write_file victim (Bytes.to_string buf);
  let ins = A.inspect_file victim in
  if ins.A.file.Obj.digest_ok then
    fail "inspect missed the flipped byte in %s" victim;
  if List.for_all (fun s -> s.Obj.s_crc_ok) ins.A.file.Obj.sections then
    fail "inspect reports no bad section CRC in %s" victim;
  let corrupt_s = run "corrupt" 3 in
  (* stamp the previous format version (u32 LE at offset 8) on the same
     artifact and on every function-tier blob *)
  let stamp_v3 path =
    let buf = Bytes.of_string (read_file path) in
    Bytes.set_int32_le buf 8 3l;
    write_file path (Bytes.to_string buf)
  in
  stamp_v3 victim;
  (match published_artifacts (Filename.concat dir "fn") with
  | [] -> fail "cold run left no function-tier blobs"
  | blobs -> List.iter stamp_v3 blobs);
  let skew_s = run "skew" 2 in
  if read_file victim <> cold_artifact then
    fail "skew rebuild of %s differs from the cold artifact" victim;
  let cold = read_file (out "cold") in
  if cold = "" then fail "cold run produced an empty report";
  if cold <> read_file (out "warm") then
    fail "warm results differ from cold (artifact load is not equivalent)";
  if cold <> read_file (out "corrupt") then
    fail "post-corruption results differ from cold (rebuild is not equivalent)";
  if cold <> read_file (out "skew") then
    fail "post-skew results differ from cold (rebuild is not equivalent)";
  Printf.printf
    "cache-smoke OK: identical figures cold/warm/corrupt/skew (cold %.2fs, \
     warm %.2fs, corrupt-rebuild %.2fs, skew-rebuild %.2fs)\n"
    cold_s warm_s corrupt_s skew_s

let () =
  let spec =
    [
      ("--phase", Arg.Set_string phase, "PHASE cold|warm|corrupt|skew (internal)");
      ("--cache-dir", Arg.Set_string cache_dir, "DIR artifact cache directory");
      ("--out", Arg.Set_string out, "FILE where the phase writes its report");
      ("--jobs", Arg.Set_int jobs, "N worker domains");
    ]
  in
  Arg.parse spec (fun a -> fail "unexpected argument %S" a) "cache_smoke";
  if !phase = "" then driver () else run_phase ()
