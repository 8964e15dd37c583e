(* Property tests for the fleet subsystem: the stable hash, the
   consistent-hash ring (stability, balance, failover order, minimal
   remapping on node loss), the bounded backoff schedule and topology
   addressing. *)

module F = Ipds_fleet
module Ring = F.Ring
module Backoff = F.Backoff
module Topology = F.Topology
module Hashing = F.Hashing
let check = Alcotest.(check bool)

(* ---------- hashing ---------- *)

let test_hashing () =
  for i = 0 to 499 do
    let k = Printf.sprintf "key-%d" i in
    let h = Hashing.stable_hash k in
    check "non-negative" true (h >= 0);
    check "deterministic" true (h = Hashing.stable_hash k)
  done;
  (* a literal anchor: the hash must be stable across runs, processes
     and builds, or ring placement silently disagrees after a restart *)
  check "anchored" true (Hashing.stable_hash "anchor" = 1336047093657022023)

(* ---------- ring ---------- *)

let node_names n = List.init n (Printf.sprintf "shard-%d")
let keys n = List.init n (Printf.sprintf "artifact:%d")

let test_ring_stable () =
  let a = Ring.create (node_names 5) and b = Ring.create (node_names 5) in
  List.iter
    (fun k ->
      check "independent rings agree" true (Ring.route a k = Ring.route b k))
    (keys 1000)

let test_ring_balance () =
  let n = 8 in
  let ring = Ring.create (node_names n) in
  let counts = Array.make n 0 in
  let total = 20_000 in
  List.iter
    (fun k ->
      let i = Ring.route ring k in
      counts.(i) <- counts.(i) + 1)
    (keys total);
  Array.iteri
    (fun i c ->
      let share = float_of_int c /. float_of_int total in
      if share < 0.04 || share > 0.30 then
        Alcotest.failf "node %d owns %.1f%% of keys (expected ~%.1f%%)" i
          (100. *. share)
          (100. /. float_of_int n))
    counts

let test_ring_successors () =
  let n = 6 in
  let ring = Ring.create (node_names n) in
  List.iter
    (fun k ->
      let succ = Ring.successors ring k in
      check "head is the owner" true (List.hd succ = Ring.route ring k);
      check "covers every node once" true
        (List.sort_uniq compare succ = List.init n Fun.id))
    (keys 200)

(* Removing a node must remap only the keys it owned: every key routed
   to a surviving node keeps its placement — the property that makes a
   shard death a bounded cache-warmth loss, not a fleet-wide reshuffle. *)
let test_ring_removal_minimal () =
  let names = node_names 8 in
  let full = Ring.create names in
  List.iteri
    (fun _ removed ->
      let survivors = List.filter (fun n -> n <> removed) names in
      let shrunk = Ring.create survivors in
      let moved = ref 0 and kept = ref 0 in
      List.iter
        (fun k ->
          let before = Ring.route_name full k in
          if before = removed then incr moved
          else begin
            check "surviving placement unchanged" true
              (Ring.route_name shrunk k = before);
            incr kept
          end)
        (keys 2000);
      if !moved = 0 then Alcotest.failf "%s owned no keys at all" removed;
      if !kept = 0 then Alcotest.fail "every key moved")
    names

(* ---------- backoff ---------- *)

let test_backoff () =
  let sum = ref 0. in
  for k = 0 to Backoff.max_attempts - 1 do
    let d = Backoff.delay k in
    check "positive" true (d > 0.);
    check "per-sleep cap" true (d <= 0.25 +. 1e-9);
    if k > 0 then
      check "non-decreasing" true (d >= Backoff.delay (k - 1) -. 1e-9);
    sum := !sum +. d
  done;
  check "total bound is the sum" true (abs_float (Backoff.total_bound () -. !sum) < 1e-9)

(* ---------- topology ---------- *)

let test_topology () =
  let unix = Topology.create ~shards:4 (`Unix "/tmp/fleet.sock") in
  for i = 0 to 3 do
    match Topology.address unix i with
    | `Unix p ->
        check "unix shard path" true (p = Printf.sprintf "/tmp/fleet.sock.%d" i)
    | `Tcp _ -> Alcotest.fail "unix topology gave a tcp address"
  done;
  let tcp = Topology.create ~shards:3 (`Tcp ("127.0.0.1", 9000)) in
  for i = 0 to 2 do
    match Topology.address tcp i with
    | `Tcp (h, p) ->
        check "tcp shard port" true (h = "127.0.0.1" && p = 9000 + i)
    | `Unix _ -> Alcotest.fail "tcp topology gave a unix address"
  done;
  let names = Topology.names unix in
  check "one name per shard" true (List.length names = 4);
  check "names distinct" true
    (List.sort_uniq compare names = List.sort compare names);
  let ring = Topology.ring unix in
  List.iter
    (fun k ->
      let s = Ring.route ring k in
      check "ring routes into the topology" true (s >= 0 && s < 4))
    (keys 100)

let () =
  Alcotest.run "fleet"
    [
      ( "hashing",
        [ Alcotest.test_case "stable, uniform, in-range" `Quick test_hashing ] );
      ( "ring",
        [
          Alcotest.test_case "stability across rings" `Quick test_ring_stable;
          Alcotest.test_case "balance" `Quick test_ring_balance;
          Alcotest.test_case "successor order" `Quick test_ring_successors;
          Alcotest.test_case "minimal remap on removal" `Quick
            test_ring_removal_minimal;
        ] );
      ( "backoff",
        [ Alcotest.test_case "bounded schedule" `Quick test_backoff ] );
      ( "topology",
        [ Alcotest.test_case "addressing" `Quick test_topology ] );
    ]
