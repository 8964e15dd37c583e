(* The ipds command-line tool: analyze, run, attack, and benchmark MIR or
   MiniC programs under the Infeasible Path Detection System.

     ipds analyze  FILE          show depends, BAT/BCV and table sizes
     ipds run      FILE          execute under the checker
     ipds attack   FILE          run a tamper campaign
     ipds perf     FILE          timing model, baseline vs IPDS
     ipds compile  FILE -o F     analyze and save a .ipds object file
     ipds inspect  FILE          section/CRC report of a .ipds file
     ipds serve                  run the streaming verdict server
     ipds fleet --shards N       run N servers sharded by artifact key
     ipds check-remote FILE      verify remote checking against in-process
     ipds servers                list the built-in server workloads

   FILE ending in .c/.mc is treated as MiniC, a file starting with the
   IPDS object magic as a prebuilt artifact (analysis skipped), anything
   else as textual MIR.  Built-in workloads can be named with '@name'
   (e.g. @telnetd).  --cache-dir/--no-cache control the content-addressed
   artifact cache (default: IPDS_CACHE_DIR).  --metrics-out FILE writes a
   JSON {manifest, metrics, runtime} summary on exit; --events FILE (or
   IPDS_EVENTS) streams structured JSONL events. *)

module Mir = Ipds_mir
module Core = Ipds_core
module M = Ipds_machine
module P = Ipds_pipeline
module W = Ipds_workloads.Workloads
module A = Ipds_artifact.Artifact
module Store = Ipds_artifact.Store
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  src

(* Every source of programs resolves to a full system: built-in
   workloads ride the artifact-aware Workloads.system path, .ipds files
   are loaded directly (no front end, no analysis), and plain sources
   are compiled and analyzed here.  [jobs] fans the per-function
   analysis passes over a domain pool; the system is byte-identical for
   any value. *)
let load_system ?(jobs = 1) ?options path =
  if String.length path > 1 && path.[0] = '@' then
    Ipds_parallel.Pool.with_opt ~jobs (fun pool ->
        W.system ?options ?pool
          (W.find (String.sub path 1 (String.length path - 1))))
  else if A.is_artifact_file path then begin
    (* prebuilt artifacts carry their analysis; options don't apply *)
    try A.load_file path
    with A.Corrupt msg ->
      Format.eprintf
        "ipds: %s: corrupt artifact (%s); re-create it with 'ipds compile'@."
        path msg;
      exit 1
  end
  else begin
    let src = read_file path in
    let program =
      if Filename.check_suffix path ".c" || Filename.check_suffix path ".mc"
      then Ipds_minic.Minic.compile src
      else Mir.Parser.program_of_string src
    in
    Ipds_parallel.Pool.with_opt ~jobs (fun pool ->
        Core.System.build ?options ?pool program)
  end

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:
          "Program file (.c/.mc MiniC, .ipds prebuilt artifact, else MIR), or \
           @name for a built-in server.")

(* Evaluated before any command body runs, so the ambient store is
   configured by the time load_system consults it. *)
let cache_term =
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Load and publish prebuilt .ipds artifacts under $(docv) \
             (default: the IPDS_CACHE_DIR environment variable).")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the artifact cache, ignoring IPDS_CACHE_DIR.")
  in
  let apply dir off =
    if off then Store.set_ambient_dir None
    else Option.iter (fun d -> Store.set_ambient_dir (Some d)) dir
  in
  Term.(const apply $ cache_dir $ no_cache)

(* ---------- observability ---------- *)

module Obs = Ipds_obs

type obs_opts = { metrics_out : string option; events : string option }

let obs_term =
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write a JSON summary of the run (manifest, deterministic \
             metrics, runtime metrics with the wall-clock timers) to \
             $(docv) on exit.")
  in
  let events =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Stream structured JSONL events (one object per line, first \
             line is the run manifest) to $(docv) (default: the \
             IPDS_EVENTS environment variable).")
  in
  let make metrics_out events =
    {
      metrics_out;
      events =
        (match events with
        | Some _ as e -> e
        | None -> Sys.getenv_opt "IPDS_EVENTS");
    }
  in
  Term.(const make $ metrics_out $ events)

(* Called at the start of each command body, after the manifest extras
   (seed, attack count…) are known, so the event stream's manifest
   header is complete. *)
let obs_init ?(manifest = []) ~command obs =
  Obs.Manifest.set_string "tool" "ipds";
  Obs.Manifest.set_string "command" command;
  Obs.Manifest.set_int "artifact_format_version"
    Ipds_artifact.Object_file.format_version;
  List.iter (fun (k, v) -> Obs.Manifest.set k v) manifest;
  (match obs.events with Some _ as p -> Obs.Events.set_path p | None -> ());
  at_exit (fun () ->
      Obs.Events.close ();
      match obs.metrics_out with
      | None -> ()
      | Some path ->
          Obs.Json.write_file path
            (Obs.Json.Obj
               [
                 ("manifest", Obs.Manifest.to_json ());
                 ("metrics", Ipds_harness.Obs_report.metrics_json ());
                 ("runtime", Ipds_harness.Obs_report.runtime_json ());
               ]))

let seed_arg =
  Arg.(value & opt int 2006 & info [ "seed" ] ~doc:"PRNG seed for inputs/attacks.")

let steps_arg =
  Arg.(value & opt int 500_000 & info [ "max-steps" ] ~doc:"Execution step cap.")

(* ---------- analyze ---------- *)

(* --jobs for the compile-side commands: fans the per-function passes
   out; output is byte-identical for any value. *)
let build_jobs_arg =
  Arg.(
    value
    & opt int (Ipds_parallel.Pool.default_jobs ())
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains for the per-function analysis passes (default: \
           cores - 1, or the IPDS_JOBS environment variable); 1 is strictly \
           sequential.  The resulting tables and artifacts are byte-identical \
           for any value.")

(* --precision for the compile-side commands.  [off] is the historical
   single-pass analysis (byte-identical artifacts and cache keys); [on]
   iterates analysis and feasibility pruning to a fixpoint. *)
let precision_arg =
  Arg.(
    value
    & opt (enum [ ("off", `Off); ("on", `On) ]) `Off
    & info [ "precision" ] ~docv:"MODE"
        ~doc:
          "Feasible-path refinement: $(b,on) prunes infeasible branch \
           directions and re-analyzes on the tightened CFG (up to a \
           per-function iteration cap), which can expose correlations \
           spurious paths hid; $(b,off) (default) is the historical \
           single-pass analysis with byte-identical output.")

let options_of_precision = function
  | `Off -> None
  | `On ->
      Some
        {
          Ipds_correlation.Analysis.default_options with
          Ipds_correlation.Analysis.precision =
            Ipds_correlation.Analysis.precision_on;
        }

(* Satellite of the refine pass: one line per function with what the
   flywheel bought.  Loaded artifacts carry no stats, so this prints
   only for freshly analyzed functions under --precision on. *)
let print_feasibility_summary (system : Core.System.t) =
  let module R = Ipds_correlation.Refine in
  let any =
    List.exists
      (fun (_, (i : Core.System.func_info)) -> i.Core.System.refine <> None)
      system.Core.System.funcs
  in
  if any then begin
    Format.printf "feasibility refinement (per function):@.";
    List.iter
      (fun (name, (i : Core.System.func_info)) ->
        match i.Core.System.refine with
        | None -> ()
        | Some s ->
            Format.printf
              "  %-16s pruned %d/%d directions  correlations %d -> %d  (%d \
               iteration%s)@."
              name s.R.edges_pruned s.R.total_directions
              s.R.correlations_before s.R.correlations_after s.R.iterations
              (if s.R.iterations = 1 then "" else "s"))
      system.Core.System.funcs
  end

let print_pass_report () =
  Format.printf "per-pass breakdown (units stable, seconds wall-clock):@.%s@."
    (Ipds_pass.Pass.render_report (Ipds_pass.Pass.report ()))

let analyze_cmd =
  let run () obs file jobs precision =
    obs_init ~command:"analyze"
      ~manifest:
        [ ("file", Obs.Json.String file); ("jobs", Obs.Json.Int jobs) ]
      obs;
    let system = load_system ~jobs ?options:(options_of_precision precision) file in
    List.iter
      (fun (_, (i : Core.System.func_info)) ->
        Format.printf "%a@.%a@.@."
          Ipds_correlation.Analysis.pp_result i.result Core.Image.pp i.image)
      system.Core.System.funcs;
    print_feasibility_summary system;
    let stats = Core.System.size_stats system in
    Format.printf "checked %d of %d branches; avg bits: BSV %.1f BCV %.1f BAT %.1f@."
      (Core.System.checked_branch_count system)
      (Core.System.total_branch_count system)
      stats.Core.System.avg_bsv_bits stats.Core.System.avg_bcv_bits
      stats.Core.System.avg_bat_bits;
    print_pass_report ()
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run the compile-side correlation analysis and show the tables.")
    Term.(
      const run $ cache_term $ obs_term $ file_arg $ build_jobs_arg
      $ precision_arg)

(* ---------- run ---------- *)

let run_cmd =
  let run () obs file seed max_steps =
    obs_init ~command:"run"
      ~manifest:
        [ ("file", Obs.Json.String file); ("seed", Obs.Json.Int seed) ]
      obs;
    let system = load_system file in
    let program = system.Core.System.program in
    let checker = Core.System.new_checker system in
    let o =
      M.Interp.run program
        {
          M.Interp.default_config with
          max_steps;
          inputs = M.Input_script.random ~seed ();
          checker = Some checker;
        }
    in
    Format.printf "steps: %d, branches: %d@." o.M.Interp.steps o.M.Interp.branches;
    Format.printf "outputs: %s@."
      (String.concat " " (List.map string_of_int o.M.Interp.outputs));
    Format.printf "stop: %s@."
      (match o.M.Interp.reason with
      | M.Interp.Exited v -> Format.asprintf "exit %a" M.Value.pp v
      | M.Interp.Halted -> "halt"
      | M.Interp.Fault m -> "fault: " ^ m
      | M.Interp.Out_of_steps -> "step cap"
      | M.Interp.Trapped a ->
          Format.asprintf "IPDS trap at pc 0x%x" a.Core.Checker.branch_pc);
    match o.M.Interp.alarms with
    | [] -> Format.printf "alarms: none@."
    | alarms ->
        List.iter
          (fun (a : Core.Checker.alarm) ->
            Format.printf "ALARM: %s pc 0x%x expected %a went %s@." a.fname
              a.branch_pc Core.Status.pp a.expected
              (if a.actual_taken then "taken" else "not-taken"))
          alarms
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute the program under the IPDS runtime checker.")
    Term.(const run $ cache_term $ obs_term $ file_arg $ seed_arg $ steps_arg)

(* ---------- attack ---------- *)

let attack_cmd =
  let attacks_arg =
    Arg.(value & opt int 100 & info [ "n"; "attacks" ] ~doc:"Number of injected attacks.")
  in
  let model_arg =
    Arg.(
      value
      & opt
          (enum
             (List.concat_map
                (fun ((_, m) as model) ->
                  (* "mem" is the universe spelling of the memory
                     scenario; with no per-workload vulnerability class
                     attached to a FILE it means an arbitrary write *)
                  if m = `Arbitrary_write then [ model; ("mem", m) ] else [ model ])
                Ipds_harness.Attack_experiment.models))
          `Arbitrary_write
      & info [ "model" ]
          ~doc:
            "Tamper model: overflow (active frame), arbitrary or mem (any \
             live cell), cond-flip (invert one committed branch), insn-skip \
             (skip one committed branch).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt int (Ipds_parallel.Pool.default_jobs ())
      & info [ "j"; "jobs" ]
          ~doc:
            "Worker domains for the campaign (default: cores - 1, or the \
             IPDS_JOBS environment variable); 1 is strictly sequential.  \
             Results are identical for any value.")
  in
  let run () obs file seed attacks model jobs =
    obs_init ~command:"attack"
      ~manifest:
        [
          ("file", Obs.Json.String file);
          ("seed", Obs.Json.Int seed);
          ("attacks", Obs.Json.Int attacks);
          ("jobs", Obs.Json.Int jobs);
        ]
      obs;
    let system = load_system file in
    match
      Ipds_parallel.Pool.with_opt ~jobs (fun pool ->
          Ipds_harness.Attack_experiment.campaign ?pool ~attacks ~seed ~model
            ~name:file system)
    with
    | row ->
        Format.printf "attacks injected: %d@." row.Ipds_harness.Attack_experiment.attacks;
        Format.printf "changed control flow: %d@."
          row.Ipds_harness.Attack_experiment.cf_changed;
        Format.printf "detected by IPDS: %d@."
          row.Ipds_harness.Attack_experiment.detected
    | exception Ipds_harness.Attack_experiment.False_positive msg ->
        Format.eprintf "FALSE POSITIVE (soundness violation): %s@." msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Run a randomized memory-tampering campaign against the program.")
    Term.(
      const run $ cache_term $ obs_term $ file_arg $ seed_arg $ attacks_arg
      $ model_arg $ jobs_arg)

(* ---------- perf ---------- *)

let perf_cmd =
  let run () obs file seed =
    obs_init ~command:"perf"
      ~manifest:
        [ ("file", Obs.Json.String file); ("seed", Obs.Json.Int seed) ]
      obs;
    let base, ipds =
      Ipds_harness.Perf_experiment.measure ~seed ~repeats:1 (load_system file)
    in
    Format.printf "baseline:@.%a@.@.with IPDS:@.%a@." P.Cpu.pp_report base
      P.Cpu.pp_report ipds;
    Format.printf "@.normalized: %.4f@." (ipds.P.Cpu.cycles /. base.P.Cpu.cycles)
  in
  Cmd.v
    (Cmd.info "perf" ~doc:"Compare cycle counts with and without the IPDS engine.")
    Term.(const run $ cache_term $ obs_term $ file_arg $ seed_arg)

(* ---------- trace ---------- *)

let trace_cmd =
  let limit_arg =
    Arg.(value & opt int 200 & info [ "limit" ] ~doc:"Maximum lines printed.")
  in
  let run () obs file seed limit =
    obs_init ~command:"trace"
      ~manifest:
        [ ("file", Obs.Json.String file); ("seed", Obs.Json.Int seed) ]
      obs;
    let system = load_system file in
    let program = system.Core.System.program in
    let log_lines = ref 0 in
    let log =
      Core.Trace_log.create
        ~lookup:(Core.System.image system)
        ~out:(fun line ->
          if !log_lines < limit then print_endline line
          else if !log_lines = limit then print_endline "... (truncated)";
          incr log_lines)
    in
    let sink (e : M.Event.t) =
      match e.M.Event.kind with
      | M.Event.Call { callee } ->
          if Mir.Program.is_defined program callee then Core.Trace_log.on_call log callee
      | M.Event.Ret -> Core.Trace_log.on_return log
      | M.Event.Branch { taken; _ } ->
          ignore (Core.Trace_log.on_branch log ~pc:e.M.Event.pc ~taken)
      | M.Event.Alu | M.Event.Load _ | M.Event.Store _ | M.Event.Jump _
      | M.Event.Input_read | M.Event.Output_write _ | M.Event.Fault_inject _ ->
          ()
    in
    let o =
      M.Interp.run program
        {
          M.Interp.default_config with
          inputs = M.Input_script.random ~seed ();
          sink = Some sink;
        }
    in
    Core.Checker.flush (Core.Trace_log.checker log);
    Format.printf "(%d branches, %d alarms)@." o.M.Interp.branches
      (Core.Checker.alarm_count (Core.Trace_log.checker log))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run the program and log every IPDS verify/update decision.")
    Term.(const run $ cache_term $ obs_term $ file_arg $ seed_arg $ limit_arg)

(* ---------- compile / inspect ---------- *)

let compile_cmd =
  let out_arg =
    Arg.(
      value & opt string "prog.ipds"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output .ipds object file.")
  in
  let run () obs file out jobs precision =
    obs_init ~command:"compile"
      ~manifest:
        [ ("file", Obs.Json.String file); ("jobs", Obs.Json.Int jobs) ]
      obs;
    let system = load_system ~jobs ?options:(options_of_precision precision) file in
    A.save_file out system;
    let bytes = (Unix.stat out).Unix.st_size in
    Format.printf "wrote %d bytes (%d functions, %d/%d branches checked) to %s@."
      bytes
      (List.length system.Core.System.funcs)
      (Core.System.checked_branch_count system)
      (Core.System.total_branch_count system)
      out;
    print_feasibility_summary system;
    print_pass_report ()
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Analyze the program and save a checksummed .ipds object file; \
          'ipds run/attack/perf' load it back without re-running the front \
          end or the analysis.")
    Term.(
      const run $ cache_term $ obs_term $ file_arg $ out_arg $ build_jobs_arg
      $ precision_arg)

let inspect_cmd =
  let image_arg =
    Arg.(
      required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:".ipds object file.")
  in
  let run path =
    if A.is_artifact_file path then
      Format.printf "%a@." A.pp_inspection (A.inspect_file path)
    else begin
      Format.eprintf "ipds inspect: %s: %s@." path
        (if Sys.file_exists path then "not an .ipds object file" else "no such file");
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Print the section/CRC report of a .ipds object file (flagging any \
          corruption) and every function's entry, branches and BSV/BCV/BAT \
          bits.")
    Term.(const run $ image_arg)

(* ---------- serve / check-remote ---------- *)

module Serve = Ipds_serve

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path of the verdict server.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Loopback TCP port of the verdict server (0 picks a free one).")

(* The CLI's own range check on a count flag: usage error, exit 2. *)
let at_least_1 cmd flag n =
  if n < 1 then begin
    Format.eprintf "ipds %s: --%s must be >= 1 (got %d)@." cmd flag n;
    exit 2
  end

(* The same for a duration in seconds, where 0 has a meaning of its
   own (NaN is refused too). *)
let non_negative cmd flag x =
  if not (x >= 0.) then begin
    Format.eprintf "ipds %s: --%s must be >= 0 (got %g)@." cmd flag x;
    exit 2
  end

let serve_cmd =
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ]
          ~doc:
            "Reactors serving sessions; 1 handles sessions strictly \
             sequentially.  The first reactor is a thread of the main \
             domain and each other one runs on a domain of its own.  \
             Verdicts and the stable serve.* metrics are identical for \
             any value.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 30.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-session idle timeout; a silent client gets a typed timeout \
             error and its session closed.  0 disables the timeout.")
  in
  let max_frame_arg =
    Arg.(
      value
      & opt int Serve.Protocol.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:
            "Largest accepted frame payload; oversized frames are rejected \
             with a typed error before being read.")
  in
  let cache_slots_arg =
    Arg.(
      value & opt int 8
      & info [ "cache-slots" ]
          ~doc:"Loaded artifacts kept resident in the server's LRU.")
  in
  let peer_socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "peer-socket" ] ~docv:"PATH"
          ~doc:
            "Base Unix-socket path of a fleet to warm the artifact store \
             from: on a store miss the artifact is fetched (and verified) \
             from ring peers instead of answering unknown-artifact.  \
             Requires $(b,--peer-shards) and $(b,--peer-self).")
  in
  let peer_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "peer-port" ] ~docv:"PORT"
          ~doc:"TCP variant of $(b,--peer-socket): peer shard i listens on \
                $(docv)+i.")
  in
  let peer_shards_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "peer-shards" ] ~docv:"N"
          ~doc:"Shard count of the peer fleet.")
  in
  let peer_self_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "peer-self" ] ~docv:"I"
          ~doc:
            "This server's own shard index in the peer fleet (never asked \
             during a peer fetch).")
  in
  let run () obs socket port jobs timeout max_frame cache_slots peer_socket
      peer_port peer_shards peer_self =
    obs_init ~command:"serve"
      ~manifest:[ ("jobs", Obs.Json.Int jobs) ]
      obs;
    at_least_1 "serve" "jobs" jobs;
    at_least_1 "serve" "cache-slots" cache_slots;
    at_least_1 "serve" "max-frame" max_frame;
    non_negative "serve" "timeout" timeout;
    let addr =
      match (socket, port) with
      | Some path, None -> `Unix path
      | None, Some p -> `Tcp p
      | None, None ->
          Format.eprintf "ipds serve: one of --socket or --port is required@.";
          exit 2
      | Some _, Some _ ->
          Format.eprintf "ipds serve: --socket and --port are mutually exclusive@.";
          exit 2
    in
    let peers =
      match (peer_socket, peer_port, peer_shards, peer_self) with
      | None, None, None, None -> None
      | _, _, None, _ | _, _, _, None ->
          Format.eprintf
            "ipds serve: peer sharing needs all of --peer-socket/--peer-port, \
             --peer-shards and --peer-self@.";
          exit 2
      | Some _, Some _, _, _ ->
          Format.eprintf
            "ipds serve: --peer-socket and --peer-port are mutually \
             exclusive@.";
          exit 2
      | None, None, Some _, Some _ ->
          Format.eprintf
            "ipds serve: peer sharing needs one of --peer-socket or \
             --peer-port@.";
          exit 2
      | base, port_base, Some n, Some self ->
          at_least_1 "serve" "peer-shards" n;
          if self < 0 || self >= n then begin
            Format.eprintf
              "ipds serve: --peer-self must be in [0, %d) (got %d)@." n self;
            exit 2
          end;
          let peer_base =
            match (base, port_base) with
            | Some path, None -> `Unix path
            | None, Some p -> `Tcp ("127.0.0.1", p)
            | _ -> assert false
          in
          Some
            {
              Serve.Server.peer_topology =
                Ipds_fleet.Topology.create ~shards:n peer_base;
              peer_self = self;
            }
    in
    let config =
      {
        Serve.Server.default_config with
        Serve.Server.jobs;
        max_frame;
        session_timeout = timeout;
        cache_slots;
        store_dir = None;
        peers;
      }
    in
    let server =
      try Serve.Server.start ~config addr
      with Unix.Unix_error (err, _, _) ->
        (match addr with
        | `Unix path ->
            Format.eprintf "ipds serve: cannot listen on %s: %s@." path
              (Unix.error_message err)
        | `Tcp p ->
            Format.eprintf "ipds serve: cannot listen on port %d: %s@." p
              (Unix.error_message err));
        exit 1
    in
    (match addr with
    | `Unix path -> Format.printf "ipds serve: listening on %s@." path
    | `Tcp _ ->
        Format.printf "ipds serve: listening on 127.0.0.1:%d@."
          (Option.value (Serve.Server.port server) ~default:0));
    let stop_requested = Atomic.make false in
    let on_signal _ = Atomic.set stop_requested true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    while not (Atomic.get stop_requested) do
      try ignore (Unix.select [] [] [] 0.2)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Format.printf "ipds serve: shutting down@.";
    Serve.Server.stop server
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the streaming verdict server: clients load an artifact over \
          the wire protocol, stream batched trace events and receive the \
          IPDS verdicts back.")
    Term.(
      const run $ cache_term $ obs_term $ socket_arg $ port_arg $ jobs_arg
      $ timeout_arg $ max_frame_arg $ cache_slots_arg
      $ peer_socket_arg $ peer_port_arg $ peer_shards_arg $ peer_self_arg)

let check_remote_cmd =
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~doc:"Server host when connecting over TCP.")
  in
  let batch_arg =
    Arg.(
      value & opt int Serve.Client.default_batch
      & info [ "batch" ]
          ~doc:"Checker-relevant events per wire frame (must be >= 1).")
  in
  let shards_arg =
    Arg.(
      value & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Treat the address as the base of an N-shard fleet and route \
             to the artifact's owning shard by consistent hashing, failing \
             over along the ring if it is down.")
  in
  let run () obs file socket host port seed max_steps batch shards =
    obs_init ~command:"check-remote"
      ~manifest:[ ("file", Obs.Json.String file); ("seed", Obs.Json.Int seed) ]
      obs;
    at_least_1 "check-remote" "batch" batch;
    Option.iter (at_least_1 "check-remote" "shards") shards;
    let addr =
      match (socket, port) with
      | Some path, None -> `Unix path
      | None, Some p -> `Tcp (host, p)
      | _ ->
          Format.eprintf
            "ipds check-remote: exactly one of --socket or --port is required@.";
          exit 2
    in
    let system = load_system file in
    let program = system.Core.System.program in
    let image = Bytes.to_string (A.to_bytes system) in
    let client =
      match shards with
      | None -> (
          try Serve.Client.connect addr
          with Unix.Unix_error (err, _, _) ->
            (match addr with
            | `Unix path ->
                Format.eprintf "ipds check-remote: cannot connect to %s: %s@."
                  path (Unix.error_message err)
            | `Tcp (h, p) ->
                Format.eprintf "ipds check-remote: cannot connect to %s:%d: %s@."
                  h p (Unix.error_message err));
            exit 1)
      | Some n -> (
          let topology = Ipds_fleet.Topology.create ~shards:n addr in
          let fc = Serve.Fleet_client.create topology in
          (* a container built here always has a header to key by *)
          let key = Option.get (Serve.Session.image_key image) in
          match Serve.Fleet_client.connect_for_key fc key with
          | Ok routed ->
              Format.printf "routed to shard %d/%d%s@."
                routed.Serve.Fleet_client.shard n
                (match List.length routed.Serve.Fleet_client.skipped with
                | 0 -> ""
                | k -> Printf.sprintf " (%d dead shard%s skipped)" k
                         (if k = 1 then "" else "s"));
              routed.Serve.Fleet_client.client
          | Error e ->
              Format.eprintf "ipds check-remote: %s: %s@."
                (Serve.Protocol.error_code_to_string e.Serve.Protocol.code)
                e.Serve.Protocol.detail;
              exit 1)
    in
    let fail (e : Serve.Protocol.err) =
      Format.eprintf "ipds check-remote: remote error %s: %s@."
        (Serve.Protocol.error_code_to_string e.Serve.Protocol.code)
        e.Serve.Protocol.detail;
      exit 1
    in
    (match Serve.Client.load_image client ~name:file (Bytes.of_string image) with
    | Ok _ -> ()
    | Error e -> fail e);
    let tr =
      match Serve.Client.trace ~batch client with Ok t -> t | Error e -> fail e
    in
    (* One interpreter run, checked twice: inline by a local checker and
       remotely through the sink — the whole point of the sink hook. *)
    let checker = Core.System.new_checker system in
    let o =
      M.Interp.run program
        {
          M.Interp.default_config with
          max_steps;
          inputs = M.Input_script.random ~seed ();
          checker = Some checker;
          sink = Some tr.Serve.Client.sink;
        }
    in
    let remote, summary =
      match tr.Serve.Client.finish () with Ok r -> r | Error e -> fail e
    in
    Serve.Client.close client;
    let local = Core.Checker.alarms checker in
    Format.printf "steps: %d, branches: %d@." o.M.Interp.steps o.M.Interp.branches;
    Format.printf "remote: %d events, %d branches, %d alarms@."
      summary.Serve.Protocol.total_events summary.Serve.Protocol.total_branches
      summary.Serve.Protocol.total_alarms;
    let render = List.map Serve.Protocol.verdict_to_string in
    let local_r = render local and remote_r = render remote in
    if local_r = remote_r then begin
      List.iter (Format.printf "ALARM: %s@.") remote_r;
      Format.printf "remote verdicts match local checking (%d alarms)@."
        (List.length remote_r)
    end
    else begin
      Format.eprintf "MISMATCH: local %d alarms, remote %d alarms@."
        (List.length local_r) (List.length remote_r);
      List.iter (Format.eprintf "  local:  %s@.") local_r;
      List.iter (Format.eprintf "  remote: %s@.") remote_r;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check-remote"
       ~doc:
         "Run the program locally while streaming its events to a verdict \
          server, then verify the remote verdicts are identical to the \
          in-process checker's (exit 1 on any divergence).")
    Term.(
      const run $ cache_term $ obs_term $ file_arg $ socket_arg $ host_arg
      $ port_arg $ seed_arg $ steps_arg $ batch_arg $ shards_arg)

(* ---------- fleet ---------- *)

let fleet_cmd =
  let shards_arg =
    Arg.(
      value & opt int 3
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Server processes to launch; artifact keys are spread over them \
             by consistent hashing on the client side.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ]
          ~doc:
            "Reactors per shard process: the first is a thread of the \
             shard's main domain, each other one runs on a domain of its \
             own.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 30.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-session idle timeout forwarded to every shard.")
  in
  let cache_slots_arg =
    Arg.(
      value & opt int 8
      & info [ "cache-slots" ] ~doc:"Artifact LRU slots per shard process.")
  in
  let share_artifacts_arg =
    Arg.(
      value & flag
      & info [ "share-artifacts" ]
          ~doc:
            "Let shards warm their artifact stores from each other: a shard \
             missing a key fetches the (verified) artifact from its ring \
             peers over the wire instead of answering unknown-artifact.")
  in
  let run () obs socket port shards jobs timeout cache_slots share_artifacts =
    obs_init ~command:"fleet"
      ~manifest:[ ("shards", Obs.Json.Int shards) ]
      obs;
    at_least_1 "fleet" "shards" shards;
    at_least_1 "fleet" "jobs" jobs;
    at_least_1 "fleet" "cache-slots" cache_slots;
    non_negative "fleet" "timeout" timeout;
    let base =
      match (socket, port) with
      | Some path, None -> `Unix path
      | None, Some p when p > 0 -> `Tcp ("127.0.0.1", p)
      | None, Some _ ->
          Format.eprintf
            "ipds fleet: --port must be an explicit base port (shard i \
             listens on port+i)@.";
          exit 2
      | _ ->
          Format.eprintf "ipds fleet: one of --socket or --port is required@.";
          exit 2
    in
    let topology = Ipds_fleet.Topology.create ~shards base in
    let addr_args i =
      match Ipds_fleet.Topology.address topology i with
      | `Unix path -> [ "--socket"; path ]
      | `Tcp (_, p) -> [ "--port"; string_of_int p ]
    in
    let cache_args =
      match Option.map Store.dir (Store.ambient ()) with
      | Some dir -> [ "--cache-dir"; dir ]
      | None -> []
    in
    let peer_args i =
      if not share_artifacts then []
      else
        (match base with
        | `Unix path -> [ "--peer-socket"; path ]
        | `Tcp (_, p) -> [ "--peer-port"; string_of_int p ])
        @ [
            "--peer-shards"; string_of_int shards;
            "--peer-self"; string_of_int i;
          ]
    in
    (* Every shard setting goes on the argv.  The launcher's events
       file and cache choice must not reach the shards through the
       environment: a shard opening IPDS_EVENTS truncates the launcher's
       stream, and IPDS_CACHE_DIR would undo --no-cache. *)
    let env =
      Array.of_list
        (List.filter
           (fun kv ->
             not
               (String.starts_with ~prefix:"IPDS_EVENTS=" kv
               || String.starts_with ~prefix:"IPDS_CACHE_DIR=" kv))
           (Array.to_list (Unix.environment ())))
    in
    let spawn i =
      let argv =
        Array.of_list
          ([ "ipds"; "serve" ] @ addr_args i @ cache_args @ peer_args i
          @ [
              "--jobs"; string_of_int jobs;
              "--timeout"; string_of_float timeout;
              "--cache-slots"; string_of_int cache_slots;
            ])
      in
      Unix.create_process_env Sys.executable_name argv env Unix.stdin
        Unix.stdout Unix.stderr
    in
    (* The handlers go in before the first spawn, so a signal at any
       point after it stops the launcher through [stop_shards] rather
       than killing it and leaving its shards under init. *)
    let stop_requested = Atomic.make false in
    let on_signal _ = Atomic.set stop_requested true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    let pids = Array.make shards 0 and alive = Array.make shards false in
    let rec reap pid =
      try ignore (Unix.waitpid [] pid) with
      | Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
      | Unix.Unix_error _ -> ()
    in
    (* every exit, failed start-up included, ends here *)
    let stop_shards () =
      Array.iteri
        (fun i pid ->
          if alive.(i) then
            try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
        pids;
      Array.iteri
        (fun i pid ->
          if alive.(i) then begin
            reap pid;
            alive.(i) <- false
          end)
        pids
    in
    let exited i =
      let gone = alive.(i) && fst (Unix.waitpid [ Unix.WNOHANG ] pids.(i)) <> 0 in
      if gone then alive.(i) <- false;
      gone
    in
    (* Wait until every shard accepts connections before declaring the
       fleet up; a shard that dies during startup fails the launch. *)
    let ready i =
      match Serve.Client.connect (Ipds_fleet.Topology.address topology i) with
      | c ->
          Serve.Client.close c;
          true
      | exception Unix.Unix_error _ -> false
    in
    let rec await_shards deadline i =
      if i = shards || Atomic.get stop_requested then Ok ()
      else if ready i then await_shards deadline (i + 1)
      else if exited i then Error (Printf.sprintf "shard %d exited during startup" i)
      else if Unix.gettimeofday () > deadline then
        Error (Printf.sprintf "shard %d not accepting after 10s" i)
      else begin
        Unix.sleepf 0.05;
        await_shards deadline i
      end
    in
    let launch () =
      for i = 0 to shards - 1 do
        if not (Atomic.get stop_requested) then begin
          pids.(i) <- spawn i;
          alive.(i) <- true
        end
      done;
      match await_shards (Unix.gettimeofday () +. 10.0) 0 with
      | Error msg ->
          Format.eprintf "ipds fleet: %s@." msg;
          1
      | Ok () ->
          if not (Atomic.get stop_requested) then
            List.iteri
              (fun i name -> Format.printf "ipds fleet: shard %d at %s@." i name)
              (Ipds_fleet.Topology.names topology);
          while not (Atomic.get stop_requested) do
            (try ignore (Unix.select [] [] [] 0.2)
             with Unix.Unix_error (Unix.EINTR, _, _) -> ());
            (* A dead shard is only degraded service — clients fail over
               along the ring — so warn and keep the fleet up. *)
            for i = 0 to shards - 1 do
              if exited i then
                Format.eprintf
                  "ipds fleet: warning: shard %d died; its keys re-route to \
                   ring successors@."
                  i
            done
          done;
          Format.printf "ipds fleet: shutting down@.";
          0
    in
    let code = Fun.protect ~finally:stop_shards launch in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Launch N verdict-server processes sharded by artifact key.  \
          Clients (check-remote --shards) hash keys straight to the owning \
          shard.")
    Term.(
      const run $ cache_term $ obs_term $ socket_arg $ port_arg $ shards_arg
      $ jobs_arg $ timeout_arg $ cache_slots_arg $ share_artifacts_arg)

(* ---------- servers ---------- *)

let servers_cmd =
  let run () =
    List.iter
      (fun (w : W.t) ->
        Format.printf "@%-10s %-14s %s@." w.W.name
          (match w.W.vulnerability with
          | W.Buffer_overflow -> "overflow"
          | W.Format_string -> "format-string")
          w.W.description)
      W.all
  in
  Cmd.v
    (Cmd.info "servers" ~doc:"List the built-in server workloads (usable as @name).")
    Term.(const run $ const ())

let () =
  let doc = "Infeasible Path Detection System (MICRO 2006) toolchain" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "ipds" ~doc)
          [
            analyze_cmd;
            run_cmd;
            attack_cmd;
            perf_cmd;
            trace_cmd;
            compile_cmd;
            inspect_cmd;
            serve_cmd;
            check_remote_cmd;
            fleet_cmd;
            servers_cmd;
          ]))
