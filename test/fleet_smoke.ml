(* End-to-end smoke test of fleet mode (@fleet-smoke):

   A 3-shard fleet (three event-loop servers over one shared artifact
   store) serves every built-in workload through the routing client:
   - consistent hashing spreads the keys over at least two shards and
     every remote verdict stream is byte-identical to an in-process
     System.new_checker run;
   - killing a shard yields typed [Unavailable] errors for its keys and
     the client re-routes to a ring successor, still byte-identical
     (the store is shared, so failover costs a cache miss, not truth);
   - with the whole fleet down, connect_for_key is a typed
     [Unavailable] error, not an exception;
   - a cold shard with its own store warms itself from a peer over the
     fetch frame, with zero compiles;
   - the fetch walk passes over a first peer that is cold or dead and
     takes the artifact from the second. *)

module P = Ipds_serve.Protocol
module Server = Ipds_serve.Server
module Client = Ipds_serve.Client
module Fleet_client = Ipds_serve.Fleet_client
module Topology = Ipds_fleet.Topology
module Ring = Ipds_fleet.Ring
module W = Ipds_workloads.Workloads
module Core = Ipds_core
module M = Ipds_machine
module Store = Ipds_artifact.Store

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "FLEET SMOKE FAIL: %s\n%!" msg;
      exit 1)
    fmt

let section title = Printf.printf "--- %s ---\n%!" title

let ok = function
  | Ok v -> v
  | Error (e : P.err) ->
      fail "unexpected remote error %s: %s" (P.error_code_to_string e.P.code)
        e.P.detail

let temp_path suffix =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ipds-fleet-smoke-%d%s" (Unix.getpid ()) suffix)

(* ---------- local reference runs ---------- *)

type local_run = {
  events : M.Event.t list;
  alarms : Core.Checker.alarm list;
  branches : int;
}

let local_run system program ~seed =
  let checker = Core.System.new_checker system in
  let events = ref [] in
  let o =
    M.Interp.run program
      {
        M.Interp.default_config with
        max_steps = 60_000;
        inputs = M.Input_script.random ~seed ();
        checker = Some checker;
        record_trace = false;
        sink =
          Some
            (fun (e : M.Event.t) ->
              match e.M.Event.kind with
              | M.Event.Call _ | M.Event.Ret | M.Event.Branch _ ->
                  events := e :: !events
              | _ -> ());
      }
  in
  {
    events = List.rev !events;
    alarms = Core.Checker.alarms checker;
    branches = o.M.Interp.branches;
  }

let render = List.map P.verdict_to_string

let rec chunks n = function
  | [] -> []
  | xs ->
      let rec take k acc = function
        | rest when k = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: tl -> take (k - 1) (x :: acc) tl
      in
      let batch, rest = take n [] xs in
      batch :: chunks n rest

let remote_check client run =
  ok (Client.begin_trace client);
  let verdicts = ref [] in
  List.iter
    (fun batch -> verdicts := !verdicts @ ok (Client.send_events client batch))
    (chunks 200 run.events);
  let summary = ok (Client.end_trace client) in
  (!verdicts, summary)

let assert_equivalent ~what run (verdicts, (summary : P.summary)) =
  if render verdicts <> render run.alarms || verdicts <> run.alarms then
    fail "%s: remote verdicts differ from in-process checking" what;
  if
    summary.P.total_events <> List.length run.events
    || summary.P.total_branches <> run.branches
    || summary.P.total_alarms <> List.length run.alarms
  then fail "%s: trace summary diverges from the local run" what

(* ---------- the smoke ---------- *)

let () =
  let shards = 3 in
  let store_dir = temp_path "-store" in
  let store = Store.create ~dir:store_dir in
  let base = temp_path ".sock" in
  let topology = Topology.create ~shards (`Unix base) in
  let config =
    { Server.default_config with cache_slots = 16; store_dir = Some store_dir }
  in
  let start_shard i =
    match Topology.address topology i with
    | `Unix path -> Server.start ~config (`Unix path)
    | `Tcp _ -> fail "unix topology produced a tcp address"
  in
  let servers = Array.init shards start_shard in
  let stopped = Array.make shards false in
  let stop_shard i =
    if not stopped.(i) then begin
      stopped.(i) <- true;
      Server.stop servers.(i)
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iteri (fun i _ -> stop_shard i) servers;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote store_dir))))
  @@ fun () ->
  let fc = Fleet_client.create topology in
  (* publish every workload into the shared store and precompute the
     reference runs *)
  let cases =
    List.map
      (fun (w : W.t) ->
        let system = W.system w in
        let key = "fleet-" ^ w.W.name in
        Store.publish_system store key system;
        (w.W.name, key, local_run system (W.program w) ~seed:2006))
      W.all
  in

  section "1: routed checking, byte-identical to local, >= 2 shards used";
  let used = Hashtbl.create 8 in
  List.iter
    (fun (name, key, run) ->
      match Fleet_client.connect_for_key fc key with
      | Error e -> fail "%s: no route: %s" name e.P.detail
      | Ok routed ->
          if routed.Fleet_client.skipped <> [] then
            fail "%s: healthy fleet produced skipped shards" name;
          if routed.Fleet_client.shard <> Fleet_client.owner fc key then
            fail "%s: connected shard is not the ring owner" name;
          Hashtbl.replace used routed.Fleet_client.shard ();
          let c = routed.Fleet_client.client in
          ignore (ok (Client.load_key c key));
          assert_equivalent ~what:name run (remote_check c run);
          Client.close c)
    cases;
  if Hashtbl.length used < 2 then
    fail "only %d shard(s) used for %d keys" (Hashtbl.length used)
      (List.length cases);
  Printf.printf "1 ok: %d workloads over %d shards, all byte-identical\n%!"
    (List.length cases) (Hashtbl.length used);

  section "2: dead shard -> typed unavailable, re-route, identical verdicts";
  let name0, key0, run0 = List.hd cases in
  let owner = Fleet_client.owner fc key0 in
  stop_shard owner;
  (match Fleet_client.connect_for_key fc key0 with
  | Error e -> fail "failover gave up: %s" e.P.detail
  | Ok routed ->
      (match routed.Fleet_client.skipped with
      | [ (e : P.err) ] ->
          if e.P.code <> P.Unavailable then
            fail "skipped shard error is %s, not unavailable"
              (P.error_code_to_string e.P.code)
      | skipped ->
          fail "expected exactly one skipped shard, got %d"
            (List.length skipped));
      if routed.Fleet_client.shard = owner then
        fail "re-route landed on the dead owner";
      let c = routed.Fleet_client.client in
      ignore (ok (Client.load_key c key0));
      assert_equivalent ~what:(name0 ^ "/failover") run0 (remote_check c run0);
      Client.close c);
  (* keys owned by surviving shards are untouched *)
  List.iter
    (fun (name, key, run) ->
      if Fleet_client.owner fc key <> owner then begin
        match Fleet_client.connect_for_key fc key with
        | Error e -> fail "%s: survivor unreachable: %s" name e.P.detail
        | Ok routed ->
            if routed.Fleet_client.skipped <> [] then
              fail "%s: survivor-owned key paid a failover" name;
            let c = routed.Fleet_client.client in
            ignore (ok (Client.load_key c key));
            assert_equivalent ~what:(name ^ "/survivor") run (remote_check c run);
            Client.close c
      end)
    (List.filteri (fun i _ -> i < 4) cases);
  Printf.printf "2 ok: one skipped typed unavailable, verdicts identical after re-route\n%!";

  section "3: whole fleet down -> typed unavailable, no exceptions";
  Array.iteri (fun i _ -> stop_shard i) servers;
  (match Fleet_client.connect_for_key fc key0 with
  | Ok routed ->
      Client.close routed.Fleet_client.client;
      fail "connect_for_key succeeded against a dead fleet"
  | Error e ->
      if e.P.code <> P.Unavailable then
        fail "dead fleet error is %s, not unavailable"
          (P.error_code_to_string e.P.code));
  Printf.printf "3 ok: dead fleet surfaces as typed unavailable\n%!";

  section "4: artifact sharing -- cold shard warms itself from a peer";
  (* Two fresh shards with SEPARATE stores (sections 1-3 share one
     directory, which would hide the fetch): warm shard 0 holds the
     artifact, cold shard 1 must obtain it over the fetch frame, verify
     it, publish it into its own store and serve byte-identical
     verdicts -- with zero MiniC compiles anywhere in the process. *)
  let module Reg = Ipds_obs.Registry in
  let cval name = Reg.counter_value (Reg.counter name) in
  (* [n] shards, each with its own store and peer sharing on, stopped
     and their stores removed when [k] returns *)
  let with_sharing_fleet n tag k =
    let topo = Topology.create ~shards:n (`Unix (temp_path (tag ^ ".sock"))) in
    let dirs =
      Array.init n (fun i -> temp_path (Printf.sprintf "%s-store%d" tag i))
    in
    let path i =
      match Topology.address topo i with
      | `Unix path -> path
      | `Tcp _ -> fail "unix topology produced a tcp address"
    in
    let config i =
      {
        Server.default_config with
        cache_slots = 16;
        store_dir = Some dirs.(i);
        peers = Some { Server.peer_topology = topo; peer_self = i };
      }
    in
    let servers =
      Array.init n (fun i -> Server.start ~config:(config i) (`Unix (path i)))
    in
    let stopped = Array.make n false in
    let stop i =
      if not stopped.(i) then begin
        stopped.(i) <- true;
        Server.stop servers.(i)
      end
    in
    Fun.protect
      ~finally:(fun () ->
        Array.iteri (fun i _ -> stop i) servers;
        Array.iter
          (fun d -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote d))))
          dirs)
      (fun () -> k topo dirs path stop)
  in
  with_sharing_fleet 2 "-share" @@ fun topo5 dirs path5 _ ->
  let w5 = List.hd W.all in
  let system5 = W.system w5 in
  let key5 = "share-" ^ w5.W.name in
  let run5 = local_run system5 (W.program w5) ~seed:2006 in
  let store_warm = Store.create ~dir:dirs.(0) in
  Store.publish_system store_warm key5 system5;
  let compiles0 = W.compile_count () in
  let fetches0 = cval "serve.artifact_fetches" in
  let peer_loads0 = cval "serve.artifact_peer_loads" in
  (* straight to the COLD shard: its store misses, so it must go to its
     ring peer (never itself) for the bytes *)
  let c = Client.connect (`Unix (path5 1)) in
  ignore (ok (Client.load_key c key5));
  assert_equivalent ~what:"cold-shard warm-up" run5 (remote_check c run5);
  Client.close c;
  if W.compile_count () <> compiles0 then
    fail "cold shard recompiled instead of fetching from its peer";
  if cval "serve.artifact_fetches" - fetches0 <> 1 then
    fail "expected exactly one peer fetch served, got %d"
      (cval "serve.artifact_fetches" - fetches0);
  if cval "serve.artifact_peer_loads" - peer_loads0 <> 1 then
    fail "expected exactly one peer-warmed load, got %d"
      (cval "serve.artifact_peer_loads" - peer_loads0);
  (* the fetched artifact was published into the cold shard's own
     store: a fresh session is a local hit, no second peer fetch *)
  let fetches1 = cval "serve.artifact_fetches" in
  let c2 = Client.connect (`Unix (path5 1)) in
  ignore (ok (Client.load_key c2 key5));
  assert_equivalent ~what:"warmed-shard rerun" run5 (remote_check c2 run5);
  Client.close c2;
  if cval "serve.artifact_fetches" <> fetches1 then
    fail "warmed shard paid a second peer fetch";
  (* and client-side push seeds a shard directly: push to shard 0 under
     a new key, then a fetch returns the identical bytes *)
  let image5 = Ipds_artifact.Artifact.to_bytes system5 in
  let fc5 = Fleet_client.create topo5 in
  (match Fleet_client.push_artifact fc5 ~key:"share-seeded" image5 with
  | Ok true -> ()
  | Ok false -> fail "seeding push reported duplicate on an empty key"
  | Error e -> fail "seeding push failed: %s" e.P.detail);
  (match Fleet_client.fetch_artifact fc5 "share-seeded" with
  | Ok got when Bytes.equal got image5 -> ()
  | Ok _ -> fail "fetched bytes differ from the pushed image"
  | Error e -> fail "fetch after push failed: %s" e.P.detail);
  Printf.printf
    "4 ok: cold shard warmed over the wire, zero compiles, verdicts identical\n%!";

  section "5: peer fetch skips a cold or dead first peer";
  (* Three shards with separate stores.  For a key shard 0 owns with
     shard 1 next on the ring, cold shard 0's fetch walk asks shard 1
     first and shard 2 second; only shard 2 holds the artifact.  Shard 1
     answers unknown-artifact in (a) and is stopped in (b); both times
     shard 0 must still warm itself from shard 2. *)
  with_sharing_fleet 3 "-skip" @@ fun topo6 dirs6 path6 stop6 ->
  let ring6 = Topology.ring topo6 in
  let key_cold, key_dead =
    match
      List.filter
        (fun k -> Ring.successors ring6 k = [ 0; 1; 2 ])
        (List.init 64 (Printf.sprintf "skip-%d"))
    with
    | a :: b :: _ -> (a, b)
    | _ -> fail "no two keys with ring order 0, 1, 2"
  in
  let store2 = Store.create ~dir:dirs6.(2) in
  let warm ~what key =
    Store.publish_system store2 key system5;
    let fetches0 = cval "serve.artifact_fetches" in
    let peer_loads0 = cval "serve.artifact_peer_loads" in
    let c = Client.connect (`Unix (path6 0)) in
    ignore (ok (Client.load_key c key));
    assert_equivalent ~what run5 (remote_check c run5);
    Client.close c;
    if cval "serve.artifact_fetches" - fetches0 <> 1 then
      fail "%s: expected exactly one peer fetch served, got %d" what
        (cval "serve.artifact_fetches" - fetches0);
    if cval "serve.artifact_peer_loads" - peer_loads0 <> 1 then
      fail "%s: expected exactly one peer-warmed load, got %d" what
        (cval "serve.artifact_peer_loads" - peer_loads0)
  in
  warm ~what:"(a) cold first peer" key_cold;
  stop6 1;
  warm ~what:"(b) dead first peer" key_dead;
  Printf.printf "5 ok: the walk passed a cold and a dead first peer\n%!";
  print_endline "fleet smoke OK"
