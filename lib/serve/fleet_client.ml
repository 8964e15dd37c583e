(* Client-side fleet routing: consistent hashing straight to the owning
   shard, no proxy hop on the hot path.

   Every routing client builds the same {!Ipds_fleet.Ring} from the
   same {!Ipds_fleet.Topology}, so they agree on which shard owns an
   artifact key without coordination.  A shard that cannot be reached
   yields a typed [Unavailable] error; the client then walks the ring's
   successor order on the fixed {!Ipds_fleet.Backoff} schedule — any
   shard can serve any key (the store is shared; sharding is cache
   affinity, not ownership of truth), so failover costs a cache miss,
   never an error. *)

module Ring = Ipds_fleet.Ring
module Topology = Ipds_fleet.Topology
module Backoff = Ipds_fleet.Backoff

type t = { topology : Topology.t; ring : Ring.t; max_frame : int }

let create ?(max_frame = Protocol.default_max_frame) topology =
  { topology; ring = Topology.ring topology; max_frame }

let owner t key = Ring.route t.ring key

let connect_shard t shard =
  let addr = Topology.address t.topology shard in
  match Client.connect ~max_frame:t.max_frame addr with
  | c -> Ok c
  | exception Unix.Unix_error (e, _, _) ->
      Error
        {
          Protocol.code = Protocol.Unavailable;
          detail =
            Printf.sprintf "shard %s unreachable: %s"
              (Topology.shard_name t.topology shard)
              (Unix.error_message e);
        }

(* The one ring walk: try [attempt] on each shard of [order] in turn,
   sleeping the backoff schedule before every try but the first, until
   one answers [Ok] or the order or the attempt budget runs out.
   [Ok (shard, v, skipped)] carries the errors of the shards passed
   over, in order; exhaustion is the last error. *)
let walk order attempt =
  let budget = min Backoff.max_attempts (List.length order) in
  let rec go k skipped = function
    | [] ->
        Error
          { Protocol.code = Protocol.Unavailable; detail = "no shards to try" }
    | shard :: rest -> (
        if k > 0 then Unix.sleepf (Backoff.delay (k - 1));
        match attempt shard with
        | Ok v -> Ok (shard, v, List.rev skipped)
        | Error e when k + 1 >= budget -> Error e
        | Error e -> go (k + 1) (e :: skipped) rest)
  in
  go 0 [] order

type routed = {
  client : Client.t;
  shard : int;  (** the shard actually connected *)
  skipped : Protocol.err list;
      (** one typed [Unavailable] per dead shard tried before [shard] *)
}

let connect_for_key t key =
  walk (Ring.successors t.ring key) (connect_shard t)
  |> Result.map (fun (shard, client, skipped) -> { client; shard; skipped })

(* Unlike a connect, a reachable peer can still answer
   [unknown-artifact] (it is cold too) or [corrupt-artifact] (its copy
   rotted); either just moves the walk on. *)
let fetch_artifact ?exclude t key =
  let order =
    List.filter (fun s -> exclude <> Some s) (Ring.successors t.ring key)
  in
  walk order (fun shard ->
      Result.bind (connect_shard t shard) (fun client ->
          Fun.protect
            ~finally:(fun () -> Client.close client)
            (fun () -> Client.fetch_artifact client key)))
  |> Result.map (fun (_, image, _) -> image)

let push_artifact t ~key image =
  Result.bind (connect_for_key t key) (fun { client; _ } ->
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () -> Client.push_artifact client ~key image))
