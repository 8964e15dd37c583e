(* Fleet topology: how N shards of one fleet are addressed.

   Derived purely from a base address, so the launcher
   ([ipds fleet]), the routing clients and the peer-sharing servers
   agree on shard addresses and ring names without any registry:
   shard [i] of a Unix-domain fleet at [path] listens on
   [path ^ "." ^ i]; a TCP fleet at [port] puts shard [i] on
   [port + i]. *)

type address = [ `Unix of string | `Tcp of string * int ]

type t = { base : address; shards : int }

let create ~shards base =
  if shards < 1 then invalid_arg "Topology.create: shards must be >= 1";
  { base; shards }

let address t i =
  if i < 0 || i >= t.shards then invalid_arg "Topology.address: bad shard";
  match t.base with
  | `Unix path -> `Unix (path ^ "." ^ string_of_int i)
  | `Tcp (host, port) -> `Tcp (host, port + i)

let shard_name t i =
  match address t i with
  | `Unix path -> "unix:" ^ path
  | `Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let names t = List.init t.shards (shard_name t)

let ring t = Ring.create (names t)
