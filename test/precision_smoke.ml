(* End-to-end smoke test of the artifact cache under precision-config
   changes (the @precision-smoke alias, wired into runtest).  One
   executable, two roles:

   - driver (no --phase): makes a fresh cache directory and re-executes
     itself through an off/on/on/off ladder — a cold --precision off
     run that populates the cache, a cold --precision on run that must
     be a clean miss on BOTH tiers (a stale off-mode fn/ entry served
     to an on-mode build would silently drop the refinement), a warm
     on run and a warm off run that must both be pure system-tier hits.
     Warm results must be byte-identical to their cold counterparts,
     and the on results must differ from off (the refinement visibly
     gains checked branches).
   - phase child (--phase PHASE): builds every workload through the
     two-tier incremental driver with the phase's precision setting,
     writes per-workload checked-branch tables to --out, and asserts
     the phase's expected compile/build and cache counters — including
     the [fn_precision_misses] counter, which must count fn-tier misses
     exactly when precision is on. *)

module Store = Ipds_artifact.Store
module W = Ipds_workloads.Workloads
module Core = Ipds_core
module An = Ipds_correlation.Analysis

let phase = ref ""
let cache_dir = ref ""
let out = ref ""

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("precision-smoke: " ^ s);
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

let on_options = { An.default_options with An.precision = An.precision_on }

let results ~options =
  String.concat "\n"
    (List.map
       (fun w ->
         let sys = W.system ~options w in
         Printf.sprintf "%s checked=%d/%d" w.W.name
           (Core.System.checked_branch_count sys)
           (Core.System.total_branch_count sys))
       W.all)
  ^ "\n"

(* The counter [store.<name>], read through the registry as a run
   report reads it. *)
let store name =
  match List.assoc_opt ("store." ^ name) (Ipds_obs.Registry.snapshot ()) with
  | Some (Ipds_obs.Registry.Counter n) -> n
  | _ -> failwith ("no counter store." ^ name)

let run_phase () =
  Store.set_ambient_dir (Some !cache_dir);
  let options =
    match !phase with
    | "cold-off" | "warm-off" -> An.default_options
    | "cold-on" | "warm-on" -> on_options
    | p -> fail "unknown phase %S" p
  in
  write_file !out (results ~options);
  let n = List.length W.all in
  let compiles = W.compile_count () in
  let builds = Core.System.build_count () in
  (match !phase with
  | "cold-off" ->
      if store "hits" <> 0 then fail "cold-off hit the cache %d times" (store "hits");
      if store "misses" <> n then
        fail "cold-off: %d system misses, want %d" (store "misses") n;
      if compiles <> n then fail "cold-off: %d compiles, want %d" compiles n;
      if store "fn_precision_misses" <> 0 then
        fail "cold-off counted %d precision misses with precision off"
          (store "fn_precision_misses")
  | "cold-on" ->
      (* the cache-soundness criterion: flipping precision on must be a
         clean miss on both tiers — an off-mode fn/ entry served here
         would be a stale (unrefined) analysis under an on-mode key *)
      if store "hits" <> 0 then
        fail "cold-on was served %d whole-system entries from the off run"
          (store "hits");
      if store "misses" <> n then
        fail "cold-on: %d system misses, want %d" (store "misses") n;
      if store "fn_hits" <> 0 then
        fail "cold-on was served %d stale fn/ entries" (store "fn_hits");
      if builds <> n then fail "cold-on: %d analyses, want %d" builds n;
      if store "fn_precision_misses" = 0 then
        fail "cold-on counted no fn_precision_misses";
      if store "fn_precision_misses" <> (store "fn_misses") then
        fail "cold-on: fn_precision_misses=%d but fn_misses=%d"
          (store "fn_precision_misses") (store "fn_misses")
  | "warm-on" | "warm-off" ->
      if compiles <> 0 then fail "%s ran %d MiniC compiles" !phase compiles;
      if builds <> 0 then fail "%s ran %d analyses" !phase builds;
      if store "misses" <> 0 then fail "%s missed %d times" !phase (store "misses");
      if store "hits" <> n then
        fail "%s: %d hits, want %d" !phase (store "hits") n;
      if store "fn_precision_misses" <> 0 then
        fail "%s counted %d fn_precision_misses on a pure system-tier run"
          !phase (store "fn_precision_misses")
  | p -> fail "unknown phase %S" p);
  exit 0

(* ---------- driver ---------- *)

let driver () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ipds-precision-smoke-%d" (Unix.getpid ()))
  in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
  @@ fun () ->
  let out p = Filename.concat dir ("result-" ^ p ^ ".txt") in
  let run p =
    let t0 = Unix.gettimeofday () in
    let cmd =
      Printf.sprintf "%s --phase %s --cache-dir %s --out %s"
        (Filename.quote Sys.executable_name)
        p (Filename.quote dir)
        (Filename.quote (out p))
    in
    (match Sys.command cmd with
    | 0 -> ()
    | rc -> fail "phase %s exited with %d" p rc);
    Unix.gettimeofday () -. t0
  in
  let cold_off_s = run "cold-off" in
  let cold_on_s = run "cold-on" in
  let warm_on_s = run "warm-on" in
  let warm_off_s = run "warm-off" in
  let cold_off = read_file (out "cold-off") in
  let cold_on = read_file (out "cold-on") in
  if cold_off = "" then fail "cold-off produced an empty report";
  if String.equal cold_off cold_on then
    fail "precision on changed nothing (no refinement gain visible)";
  if not (String.equal cold_on (read_file (out "warm-on"))) then
    fail "warm on results differ from cold on (artifact load not equivalent)";
  if not (String.equal cold_off (read_file (out "warm-off"))) then
    fail
      "warm off results differ from cold off (precision toggle corrupted the \
       off entries)";
  Printf.printf
    "precision-smoke OK: off/on ladder with clean misses and identical warm \
     results (cold-off %.2fs, cold-on %.2fs, warm-on %.2fs, warm-off %.2fs)\n"
    cold_off_s cold_on_s warm_on_s warm_off_s

let () =
  let spec =
    [
      ( "--phase",
        Arg.Set_string phase,
        "PHASE cold-off|cold-on|warm-on|warm-off (internal)" );
      ("--cache-dir", Arg.Set_string cache_dir, "DIR artifact cache directory");
      ("--out", Arg.Set_string out, "FILE where the phase writes its report");
    ]
  in
  Arg.parse spec (fun a -> fail "unexpected argument %S" a) "precision_smoke";
  if !phase = "" then driver () else run_phase ()
