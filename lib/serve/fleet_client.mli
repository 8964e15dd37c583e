(** Client-side fleet routing: every routing client derives the same
    consistent-hash ring from the {!Ipds_fleet.Topology}, so artifact
    keys go straight to their owning shard — no proxy hop, no
    coordination.  A dead shard yields a typed [Unavailable] error and
    the client retries the ring's successor order on the fixed
    {!Ipds_fleet.Backoff} schedule; any shard can serve any key
    (sharding is cache affinity), so failover costs a cache miss, never
    an error. *)

type t

val create : ?max_frame:int -> Ipds_fleet.Topology.t -> t
(** [max_frame] (default {!Protocol.default_max_frame}) bounds every
    reply frame read from a shard. *)

val owner : t -> string -> int
(** Test seam: the fleet smoke test checks that a routed connection reached
    the ring owner.  The ring owner of [key]. *)

type routed = {
  client : Client.t;
  shard : int;  (** the shard actually connected *)
  skipped : Protocol.err list;
      (** one typed [Unavailable] per dead shard tried before [shard] *)
}

val connect_for_key : t -> string -> (routed, Protocol.err) result
(** Connect to [key]'s shard, failing over along the ring (bounded by
    the backoff's attempt budget and the shard count).  All reachable
    candidates exhausted → the last typed [Unavailable] error. *)

val fetch_artifact :
  ?exclude:int -> t -> string -> (Bytes.t, Protocol.err) result
(** The raw container bytes of [key] from the first ring peer that
    returns them, walking the successor order as {!connect_for_key}
    does; an unreachable peer, a reachable-but-cold one
    ([unknown-artifact]) or a rotted copy ([corrupt-artifact]) just
    advances the walk.  [exclude] skips one shard index — a shard
    warming itself must not ask itself.  The caller still owns
    verification of the returned bytes. *)

val push_artifact : t -> key:string -> Bytes.t -> (bool, Protocol.err) result
(** Test seam: the fleet smoke test seeds a fleet with a built artifact.
    {!Client.push_artifact} to the key's ring owner (with connect failover):
    seed a fleet with a locally-built artifact. *)
