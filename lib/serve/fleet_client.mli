(** Client-side fleet routing: every routing client derives the same
    consistent-hash ring from the {!Ipds_fleet.Topology}, so artifact
    keys go straight to their owning shard — no proxy hop, no
    coordination.  A dead shard yields a typed [Unavailable] error and
    the client retries the ring's successor order with bounded backoff;
    any shard can serve any key (sharding is cache affinity), so
    failover costs a cache miss, never an error. *)

type t

val create :
  ?max_frame:int -> ?backoff:Ipds_fleet.Backoff.t -> Ipds_fleet.Topology.t -> t

val topology : t -> Ipds_fleet.Topology.t

val owner : t -> string -> int
(** The ring owner of [key]. *)

val image_key : string -> string
(** {!Session.image_key}: route inline images by the same key the
    servers cache them under. *)

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

val with_key : t -> string -> (routed -> 'a) -> ('a, Protocol.err) result
(** [connect_for_key] + close on exit (also on exception). *)

val fetch_artifact :
  ?exclude:int -> t -> string -> (Bytes.t, Protocol.err) result
(** The raw container bytes of [key] from the first ring peer that has
    a verified copy, walking the successor order with bounded backoff;
    a reachable-but-cold peer ([unknown-artifact]) or a rotted copy
    ([corrupt-artifact]) just advances the walk.  [exclude] skips one
    shard index — a shard warming itself must not ask itself.  The
    caller still owns verification of the returned bytes. *)

val push_artifact : t -> key:string -> Bytes.t -> (bool, Protocol.err) result
(** {!Client.push_artifact} to the key's ring owner (with connect
    failover): seed a fleet with a locally-built artifact. *)
