(* Tests for the timing substrate: cache, branch predictor, the IPDS
   engine model, and the CPU trace consumer. *)

module Mir = Ipds_mir
module P = Ipds_pipeline
module M = Ipds_machine
module Core = Ipds_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- cache ---------- *)

let small_cache () =
  P.Cache.create
    { P.Config.size_bytes = 256; assoc = 2; block_bytes = 32; hit_latency = 1 }

let test_cache_cold_miss_then_hit () =
  let c = small_cache () in
  check "cold miss" false (P.Cache.access c 0x1000);
  check "then hit" true (P.Cache.access c 0x1000);
  check "same block hits" true (P.Cache.access c 0x101f);
  check "next block misses" false (P.Cache.access c 0x1020);
  check_int "misses" 2 (P.Cache.misses c);
  check_int "accesses" 4 (P.Cache.accesses c)

let test_cache_lru_eviction () =
  (* 256B, 2-way, 32B blocks -> 4 sets.  Three blocks mapping to set 0:
     block addresses stride = 4 sets * 32B = 128. *)
  let c = small_cache () in
  ignore (P.Cache.access c 0);
  ignore (P.Cache.access c 128);
  (* touch block 0 so block 128 is LRU *)
  ignore (P.Cache.access c 0);
  ignore (P.Cache.access c 256);
  check "block 0 survives (was MRU)" true (P.Cache.access c 0);
  check "block 128 evicted (was LRU)" false (P.Cache.access c 128)

let test_cache_stats_reset () =
  let c = small_cache () in
  ignore (P.Cache.access c 0);
  P.Cache.reset_stats c;
  check_int "reset" 0 (P.Cache.accesses c)

(* ---------- predictor ---------- *)

let test_predictor_learns_bias () =
  let p = P.Predictor.create ~history_bits:8 in
  (* always-taken branch: after warmup, predictions are correct *)
  for _ = 1 to 10 do
    ignore (P.Predictor.observe p ~pc:0x4000 ~taken:true)
  done;
  let correct = P.Predictor.observe p ~pc:0x4000 ~taken:true in
  check "biased branch learned" true correct

let test_predictor_learns_pattern () =
  let p = P.Predictor.create ~history_bits:8 in
  (* alternating T/N/T/N: a 2-level predictor captures it via history *)
  let flips = ref 0 in
  for i = 1 to 200 do
    let taken = i mod 2 = 0 in
    if not (P.Predictor.observe p ~pc:0x4000 ~taken) then incr flips
  done;
  (* after warmup the pattern is predicted; allow generous warmup misses *)
  check "alternating pattern learned" true (!flips < 40);
  check_int "lookups counted" 200 (P.Predictor.lookups p)

(* ---------- ipds unit ---------- *)

let unit_config = P.Config.default

let test_unit_latency_includes_dispatch () =
  let u = P.Ipds_unit.create unit_config in
  let stall = P.Ipds_unit.on_branch u ~cycle:100. ~verify:true ~bat_nodes:1 in
  check "no stall on empty queue" true (stall = 0.);
  let s = P.Ipds_unit.stats u in
  check_int "one verify" 1 s.P.Ipds_unit.verifies;
  check "latency at least dispatch + service" true
    (P.Ipds_unit.avg_detection_latency s
    >= float_of_int unit_config.P.Config.ipds_dispatch_latency +. 1.)

let test_unit_queue_fills_and_stalls () =
  let u = P.Ipds_unit.create unit_config in
  (* slam requests at the same cycle; eventually the queue fills and the
     enqueue reports a stall *)
  let stalled = ref false in
  for _ = 1 to 200 do
    if P.Ipds_unit.on_branch u ~cycle:0. ~verify:true ~bat_nodes:8 > 0. then
      stalled := true
  done;
  check "burst eventually stalls" true !stalled;
  let s = P.Ipds_unit.stats u in
  check "stall cycles recorded" true (s.P.Ipds_unit.stall_cycles > 0.);
  check "queue bounded" true (s.P.Ipds_unit.max_queue <= unit_config.P.Config.ipds_queue_entries + 1)

let big_sizes bits = { Core.Image.bsv_bits = bits; bcv_bits = bits; bat_bits = bits }

let test_unit_spill_fill () =
  let u = P.Ipds_unit.create unit_config in
  (* Frames of 900 bits against a 1024-bit BCV cap: the second push must
     spill the outer frame, and returning must fill it back. *)
  P.Ipds_unit.on_call u ~cycle:0. ~sizes:(big_sizes 900);
  P.Ipds_unit.on_call u ~cycle:1. ~sizes:(big_sizes 900);
  let s = P.Ipds_unit.stats u in
  check_int "one spill" 1 s.P.Ipds_unit.spills;
  P.Ipds_unit.on_return u ~cycle:2.;
  let s2 = P.Ipds_unit.stats u in
  check_int "one fill" 1 s2.P.Ipds_unit.fills

let test_unit_context_switch () =
  let u = P.Ipds_unit.create unit_config in
  P.Ipds_unit.on_call u ~cycle:0. ~sizes:(big_sizes 500);
  let stall = P.Ipds_unit.on_context_switch u ~cycle:10. in
  check "switch stalls the cpu" true (stall > 0.);
  let s = P.Ipds_unit.stats u in
  Alcotest.(check int) "switch counted" 1 s.P.Ipds_unit.context_switches;
  check "ctx stall recorded" true (s.P.Ipds_unit.ctx_stall_cycles = stall)

let test_cpu_ctx_period () =
  (* frequent switches cost more than rare ones *)
  let p =
    Ipds_mir.Parser.program_of_string
      {|
func main() {
 var x
entry:
  store x, 0
  jmp loop
loop:
  r0 = load x
  r1 = add r0, 1
  store x, r1
  br lt r1, 3000, loop, exit
exit:
  ret 0
}
|}
  in
  let system = Core.System.build p in
  let run period =
    let cpu = P.Cpu.create ?ctx_switch_period:period ~system:(Some system) () in
    ignore
      (M.Interp.run p
         { M.Interp.default_config with sink = Some (P.Cpu.observer cpu) });
    (P.Cpu.finish cpu).P.Cpu.cycles
  in
  let none = run None in
  let rare = run (Some 4000.) in
  let often = run (Some 500.) in
  check "switching costs cycles" true (rare > none);
  check "more switching costs more" true (often > rare)

(* ---------- cpu ---------- *)

let spin_program =
  {|
func main() {
 var x
entry:
  store x, 0
  jmp loop
loop:
  r0 = load x
  r1 = add r0, 1
  store x, r1
  br lt r1, 200, loop, exit
exit:
  ret 0
}
|}

let run_cpu ~with_ipds =
  let p = Mir.Parser.program_of_string spin_program in
  let system = if with_ipds then Some (Core.System.build p) else None in
  let cpu = P.Cpu.create ~system () in
  ignore
    (M.Interp.run p
       { M.Interp.default_config with sink = Some (P.Cpu.observer cpu) });
  P.Cpu.finish cpu

let test_cpu_baseline () =
  let r = run_cpu ~with_ipds:false in
  check "instructions counted" true (r.P.Cpu.instructions > 800);
  check "cycles positive" true (r.P.Cpu.cycles > 0.);
  check "ipc sane" true (r.P.Cpu.ipc > 0.1 && r.P.Cpu.ipc <= 8.);
  check "branches seen" true (r.P.Cpu.branches >= 200);
  check "no ipds stats" true (r.P.Cpu.ipds = None)

let test_cpu_with_ipds () =
  let base = run_cpu ~with_ipds:false in
  let ipds = run_cpu ~with_ipds:true in
  check_int "same instruction stream" base.P.Cpu.instructions ipds.P.Cpu.instructions;
  check "ipds not faster than baseline" true (ipds.P.Cpu.cycles >= base.P.Cpu.cycles);
  (match ipds.P.Cpu.ipds with
  | Some s ->
      check "updates happened" true (s.P.Cpu.updates >= 200);
      check "verifies happened" true (s.P.Cpu.verifies >= 200);
      check "no alarms on benign run" true (s.P.Cpu.alarms = 0);
      check "latency positive" true (s.P.Cpu.avg_detection_latency > 0.)
  | None -> Alcotest.fail "expected ipds stats")

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub haystack i nn) needle || go (i + 1)) in
  go 0

let test_config_table_renders () =
  let s = Format.asprintf "%a" P.Config.pp P.Config.default in
  check "mentions RUU" true (contains s "RUU");
  check "mentions BAT stack" true (contains s "BAT stack")

let () =
  Alcotest.run "pipeline"
    [
      ( "cache",
        [
          Alcotest.test_case "cold miss then hit" `Quick test_cache_cold_miss_then_hit;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "stats reset" `Quick test_cache_stats_reset;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "bias" `Quick test_predictor_learns_bias;
          Alcotest.test_case "pattern" `Quick test_predictor_learns_pattern;
        ] );
      ( "ipds-unit",
        [
          Alcotest.test_case "latency" `Quick test_unit_latency_includes_dispatch;
          Alcotest.test_case "queue stalls" `Quick test_unit_queue_fills_and_stalls;
          Alcotest.test_case "spill/fill" `Quick test_unit_spill_fill;
          Alcotest.test_case "context switch" `Quick test_unit_context_switch;
          Alcotest.test_case "cpu ctx period" `Quick test_cpu_ctx_period;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "baseline" `Quick test_cpu_baseline;
          Alcotest.test_case "with ipds" `Quick test_cpu_with_ipds;
          Alcotest.test_case "config table" `Quick test_config_table_renders;
        ] );
    ]
