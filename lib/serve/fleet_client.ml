(* Client-side fleet routing: consistent hashing straight to the owning
   shard, no proxy hop on the hot path.

   Every routing client builds the same {!Ipds_fleet.Ring} from the
   same {!Ipds_fleet.Topology}, so they agree on which shard owns an
   artifact key without coordination.  A shard that cannot be reached
   yields a typed [Unavailable] error; the client then walks the ring's
   successor order with bounded backoff — any shard can serve any key
   (the store is shared; sharding is cache affinity, not ownership of
   truth), so failover costs a cache miss, never an error. *)

module Ring = Ipds_fleet.Ring
module Topology = Ipds_fleet.Topology
module Backoff = Ipds_fleet.Backoff

type t = {
  topology : Topology.t;
  ring : Ring.t;
  max_frame : int;
  backoff : Backoff.t;
}

let create ?max_frame ?(backoff = Backoff.default) topology =
  {
    topology;
    ring = Topology.ring topology;
    max_frame = Option.value max_frame ~default:Protocol.default_max_frame;
    backoff;
  }

let topology t = t.topology
let owner t key = Ring.route t.ring key

let image_key = Session.image_key

let unavailable t shard e =
  {
    Protocol.code = Protocol.Unavailable;
    detail =
      Printf.sprintf "shard %s unreachable: %s"
        (Topology.shard_name t.topology shard)
        (Unix.error_message e);
  }

let connect_shard t shard =
  let addr : Client.address =
    match Topology.address t.topology shard with
    | `Unix path -> `Unix path
    | `Tcp (host, port) -> `Tcp (host, port)
  in
  match Client.connect ~max_frame:t.max_frame addr with
  | c -> Ok c
  | exception Unix.Unix_error (e, _, _) -> Error (unavailable t shard e)

type routed = {
  client : Client.t;
  shard : int;  (** the shard actually connected *)
  skipped : Protocol.err list;
      (** one typed [Unavailable] per dead shard tried before [shard] *)
}

(* Walk the ring from the key's owner; each attempt beyond the first
   sleeps the (bounded) backoff schedule.  All shards dead → the last
   typed error. *)
let connect_for_key t key =
  let order = Ring.successors t.ring key in
  let max_attempts = min (Backoff.max_attempts t.backoff) (List.length order) in
  let rec go attempt skipped = function
    | [] -> (
        match skipped with
        | e :: _ -> Error e
        | [] ->
            Error
              {
                Protocol.code = Protocol.Unavailable;
                detail = "no shards configured";
              })
    | shard :: rest -> (
        if attempt > 0 then Unix.sleepf (Backoff.delay t.backoff (attempt - 1));
        match connect_shard t shard with
        | Ok client -> Ok { client; shard; skipped = List.rev skipped }
        | Error e ->
            if attempt + 1 >= max_attempts then Error e
            else go (attempt + 1) (e :: skipped) rest)
  in
  go 0 [] order

let with_key t key f =
  match connect_for_key t key with
  | Error e -> Error e
  | Ok routed ->
      Ok
        (Fun.protect
           ~finally:(fun () -> Client.close routed.client)
           (fun () -> f routed))

(* Artifact sharing: ask the ring owner (then its successors) for the
   raw container bytes of [key].  Unlike [connect_for_key], a reachable
   shard can still answer [unknown-artifact] (it is cold too) or
   [corrupt-artifact] (its copy rotted) — both just mean "try the next
   peer", with the same bounded backoff budget.  [exclude] lets a shard
   walk its own ring without asking itself. *)
let fetch_artifact ?exclude t key =
  let order =
    List.filter
      (fun shard -> not (exclude = Some shard))
      (Ring.successors t.ring key)
  in
  let max_attempts = min (Backoff.max_attempts t.backoff) (List.length order) in
  let rec go attempt last = function
    | [] -> (
        match last with
        | Some e -> Error e
        | None ->
            Error
              {
                Protocol.code = Protocol.Unavailable;
                detail = "no peers configured";
              })
    | shard :: rest -> (
        if attempt > 0 then Unix.sleepf (Backoff.delay t.backoff (attempt - 1));
        let res =
          match connect_shard t shard with
          | Error e -> Error e
          | Ok client ->
              Fun.protect
                ~finally:(fun () -> Client.close client)
                (fun () -> Client.fetch_artifact client key)
        in
        match res with
        | Ok image -> Ok image
        | Error e ->
            if attempt + 1 >= max_attempts then Error e
            else go (attempt + 1) (Some e) rest)
  in
  go 0 None order

let push_artifact t ~key image =
  match with_key t key (fun r -> Client.push_artifact r.client ~key image) with
  | Ok r -> r
  | Error e -> Error e
