(* Tests for the domain pool and the exactly-once memo the parallel
   harness and the verdict server's LRU are built on.  The bounded memo
   is checked differentially against a reference LRU over random
   load/evict interleavings, then hammered from 8 domains with exact
   counter reconciliation; its structural contract is asserted through
   the predicates the library itself exports. *)

module Pool = Ipds_parallel.Pool
module Memo = Ipds_parallel.Memo
module Reg = Ipds_obs.Registry
module Q = QCheck2.Gen

let ( let* ) = Q.bind

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_map_order_and_values () =
  Pool.with_pool ~jobs:4 (fun p ->
      let xs = List.init 100 Fun.id in
      check "squares in order" true
        (Pool.map p (fun x -> x * x) xs = List.map (fun x -> x * x) xs))

let test_edge_inputs () =
  Pool.with_pool ~jobs:3 (fun p ->
      check "empty input" true (Pool.map p (fun x -> x + 1) [] = []);
      check "singleton input" true (Pool.map p string_of_int [ 7 ] = [ "7" ]))

let test_jobs_one_spawns_nothing () =
  (* jobs:1 must work purely on the calling domain *)
  Pool.with_pool ~jobs:1 (fun p ->
      check_int "jobs" 1 (Pool.jobs p);
      check "map works" true (Pool.map p succ [ 1; 2; 3 ] = [ 2; 3; 4 ]))

exception Boom of int

let test_exception_propagation () =
  Pool.with_pool ~jobs:4 (fun p ->
      (match
         Pool.map p
           (fun x -> if x mod 3 = 0 then raise (Boom x) else x)
           (List.init 20 (fun i -> i + 1))
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom n ->
          (* smallest failing index wins, independent of scheduling *)
          check_int "first failing element" 3 n);
      (* the pool survives a failed map *)
      check "pool still usable" true (Pool.map p succ [ 1; 2 ] = [ 2; 3 ]))

let test_nested_map () =
  (* the harness nests: workloads fan out, each workload's attempts fan
     out on the same pool; the waiting parent must help, not deadlock *)
  Pool.with_pool ~jobs:2 (fun p ->
      let result =
        Pool.map p
          (fun i -> List.fold_left ( + ) 0 (Pool.map p (fun j -> (10 * i) + j) [ 1; 2; 3 ]))
          [ 1; 2; 3; 4 ]
      in
      check "nested sums" true (result = [ 36; 66; 96; 126 ]))

let test_map' () =
  check "map' None is List.map" true (Pool.map' None succ [ 1; 2 ] = [ 2; 3 ]);
  Pool.with_pool ~jobs:2 (fun p ->
      check "map' Some uses the pool" true (Pool.map' (Some p) succ [ 1; 2 ] = [ 2; 3 ]))

let test_default_jobs_positive () =
  check "default_jobs >= 1" true (Pool.default_jobs () >= 1)

let test_memo_exactly_once () =
  let memo : (string, int) Memo.t = Memo.create () in
  let runs = Atomic.make 0 in
  let compute () =
    Atomic.incr runs;
    (* widen the race window so concurrent callers really do overlap *)
    Unix.sleepf 0.02;
    42
  in
  Pool.with_pool ~jobs:4 (fun p ->
      let vs = Pool.map p (fun _ -> Memo.find_or_add memo "k" compute) (List.init 16 Fun.id) in
      check "all callers see the value" true (List.for_all (( = ) 42) vs));
  check_int "computed once" 1 (Atomic.get runs);
  check_int "memo counts it" 1 (Memo.computed memo)

let test_memo_exception_releases_key () =
  let memo : (string, int) Memo.t = Memo.create () in
  let attempts = ref 0 in
  let compute () =
    incr attempts;
    if !attempts = 1 then failwith "transient" else 7
  in
  (match Memo.find_or_add memo "k" compute with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  check_int "key released, recomputed" 7 (Memo.find_or_add memo "k" compute);
  check_int "two attempts ran" 2 !attempts;
  check_int "only the success counted" 1 (Memo.computed memo)

let assert_invariants what memo =
  List.iter
    (fun (name, holds) ->
      if not holds then Alcotest.failf "%s: invariant %s violated" what name)
    (Memo.check_invariants memo)

let test_memo_bounded_evicts_lru () =
  let memo : (string, string) Memo.t = Memo.create ~capacity:2 () in
  let runs = ref [] in
  let get k =
    Memo.find_or_add memo k (fun () ->
        runs := k :: !runs;
        k)
  in
  List.iter (fun k -> ignore (get k)) [ "a"; "b"; "a"; "c" ];
  check "a touched last survives" true (Memo.mem memo "a");
  check "b least recently used, evicted" false (Memo.mem memo "b");
  check "c just loaded" true (Memo.mem memo "c");
  ignore (get "b");
  check "b reloads, evicting a" true
    (!runs = [ "b"; "c"; "b"; "a" ] && not (Memo.mem memo "a"));
  check "two evictions, two resident" true
    (let s = Memo.stats memo in
     s.Memo.evictions = 2 && s.Memo.size = 2);
  assert_invariants "bounded find_or_add" memo;
  check "capacity below 1 rejected" true
    (match Memo.create ~capacity:0 () with
    | (_ : (int, int) Memo.t) -> false
    | exception Invalid_argument _ -> true)

(* ---------- bounded memo: differential model check ---------- *)

(* The reference LRU: one MRU list of at most [capacity] keys with the
   same promote-on-hit / insert-evict-on-load / don't-cache-errors
   semantics, trivially correct by inspection. *)
let model_fetch ~capacity ring key ok =
  if List.mem key !ring then begin
    ring := key :: List.filter (fun k -> k <> key) !ring;
    `Hit
  end
  else if not ok then `Err
  else begin
    ring := List.filteri (fun i _ -> i < capacity) (key :: !ring);
    `Loaded
  end

(* A capacity, and ops of (key index, loader succeeds?). *)
let model_gen : (int * (int * bool) list) Q.t =
  let* capacity = Q.int_range 1 5 in
  let* ops =
    Q.list_size (Q.int_range 1 400)
      (let* k = Q.int_range 0 11 in
       let* ok = Q.frequency [ (9, Q.return true); (1, Q.return false) ] in
       Q.return (k, ok))
  in
  Q.return (capacity, ops)

let prop_memo_matches_model =
  QCheck2.Test.make
    ~name:"bounded memo = reference LRU model over load/evict interleavings"
    ~count:200 model_gen (fun (capacity, ops) ->
      let memo = Memo.create ~capacity () in
      let ring = ref [] in
      let universe = List.init 12 (Printf.sprintf "k%d") in
      List.iteri
        (fun step (ki, ok) ->
          let key = List.nth universe ki in
          let expected = model_fetch ~capacity ring key ok in
          let got =
            Memo.fetch memo key (fun () ->
                if ok then Ok ("v:" ^ key) else Error "load failed")
          in
          (match (expected, got) with
          | `Hit, `Hit v | `Loaded, `Loaded v ->
              if v <> "v:" ^ key then
                QCheck2.Test.fail_reportf "step %d: wrong value %S" step v
          | `Err, `Err e ->
              if e <> "load failed" then
                QCheck2.Test.fail_reportf "step %d: wrong error" step
          | _ ->
              QCheck2.Test.fail_reportf "step %d: outcome diverged from model"
                step);
          assert_invariants "model check" memo)
        ops;
      (* residency agrees everywhere, and the counters reconcile *)
      List.iter
        (fun key ->
          if Memo.mem memo key <> List.mem key !ring then
            QCheck2.Test.fail_reportf "residency of %s diverged" key)
        universe;
      let s = Memo.stats memo in
      s.Memo.hits + s.Memo.misses = List.length ops
      && s.Memo.size = List.length !ring
      && s.Memo.size <= capacity)

(* ---------- bounded memo: 8-domain hammer ---------- *)

let test_memo_hammer () =
  let capacity = 32 in
  let memo = Memo.create ~capacity ~metrics_prefix:"testparallel.memo" () in
  let cval name = Reg.counter_value (Reg.counter ~stable:false name) in
  let stable () =
    List.map
      (fun n -> Reg.counter_value (Reg.counter n))
      [ "memo.hits"; "memo.computed" ]
  in
  let stable_before = stable () in
  let domains = 8 and per_domain = 2000 in
  let failing_every = 97 in
  let worker d =
    Domain.spawn (fun () ->
        let st = Random.State.make [| 0xf1ee7; d |] in
        let errs = ref 0 in
        for i = 1 to per_domain do
          let key = Printf.sprintf "obj-%d" (Random.State.int st 64) in
          let fails = i mod failing_every = 0 in
          match
            Memo.fetch memo key (fun () ->
                if fails then Error `Load_failed else Ok (key ^ "!"))
          with
          | `Hit v | `Loaded v ->
              if v <> key ^ "!" then failwith ("wrong value for " ^ key)
          | `Err `Load_failed -> incr errs
        done;
        !errs)
  in
  let errs =
    List.init domains worker |> List.map Domain.join
    |> List.fold_left ( + ) 0
  in
  assert_invariants "hammer" memo;
  let s = Memo.stats memo in
  (* exact reconciliation: every fetch is a hit or a miss; every
     resident entry is a successful load that has not been evicted *)
  check "hits+misses = fetches" true
    (s.Memo.hits + s.Memo.misses = domains * per_domain);
  check "size = successful loads - evictions" true
    (s.Memo.size = s.Memo.misses - errs - s.Memo.evictions);
  check "computed = successful loads" true
    (Memo.computed memo = s.Memo.misses - errs);
  check "size within capacity" true (s.Memo.size <= capacity);
  check "memo saw real contention" true (s.Memo.hits > 0 && s.Memo.misses > 0);
  (* the obs counters mirror the internal stats exactly *)
  check "obs hits reconcile" true (cval "testparallel.memo_hits" = s.Memo.hits);
  check "obs misses reconcile" true
    (cval "testparallel.memo_misses" = s.Memo.misses);
  check "obs evictions reconcile" true
    (cval "testparallel.memo_evictions" = s.Memo.evictions);
  (* a bounded memo's hits depend on request order: it must not touch
     the stable counters *)
  check "stable memo.* counters untouched" true (stable () = stable_before)

(* Same-key fetches collapse onto the one in-flight load: a key is
   loaded once no matter how many domains race it. *)
let test_memo_single_load () =
  let memo = Memo.create ~capacity:8 () in
  let loads = Atomic.make 0 in
  let barrier = Atomic.make 0 in
  let worker () =
    Domain.spawn (fun () ->
        Atomic.incr barrier;
        while Atomic.get barrier < 8 do
          Domain.cpu_relax ()
        done;
        for _ = 1 to 50 do
          match
            Memo.fetch memo "the-one-key" (fun () ->
                Atomic.incr loads;
                Ok 42)
          with
          | `Hit 42 | `Loaded 42 -> ()
          | _ -> failwith "wrong value"
        done)
  in
  List.init 8 (fun _ -> worker ()) |> List.iter Domain.join;
  check "one load for one key" true (Atomic.get loads = 1);
  assert_invariants "single load" memo

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map order/values" `Quick test_map_order_and_values;
          Alcotest.test_case "edge inputs" `Quick test_edge_inputs;
          Alcotest.test_case "jobs=1" `Quick test_jobs_one_spawns_nothing;
          Alcotest.test_case "exceptions" `Quick test_exception_propagation;
          Alcotest.test_case "nested map" `Quick test_nested_map;
          Alcotest.test_case "map'" `Quick test_map';
          Alcotest.test_case "default_jobs" `Quick test_default_jobs_positive;
        ] );
      ( "memo",
        [
          Alcotest.test_case "exactly once" `Quick test_memo_exactly_once;
          Alcotest.test_case "exception releases key" `Quick
            test_memo_exception_releases_key;
          Alcotest.test_case "bounded find_or_add evicts the LRU key" `Quick
            test_memo_bounded_evicts_lru;
          QCheck_alcotest.to_alcotest prop_memo_matches_model;
          Alcotest.test_case "8-domain hammer + counter reconciliation" `Quick
            test_memo_hammer;
          Alcotest.test_case "racing loads collapse to one" `Quick
            test_memo_single_load;
        ] );
    ]
