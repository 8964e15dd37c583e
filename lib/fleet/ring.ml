(* Consistent-hash ring.

   Each node contributes [vnodes] (64) points at stable positions
   [stable_hash (name ^ "#" ^ i)]; a key routes to the node owning the
   first point clockwise of the key's own hash.  Because surviving
   nodes' points never move, removing a node remaps exactly the keys
   that routed to it — the property the fleet client's failover and the
   fleet smoke test rely on. *)

type t = {
  nodes : string array;
  points : (int * int) array;  (* (position, node index), sorted *)
}

let vnodes = 64

let create names =
  if names = [] then invalid_arg "Ring.create: no nodes";
  let nodes = Array.of_list names in
  let points =
    Array.init (Array.length nodes * vnodes) (fun k ->
        let n = k / vnodes and v = k mod vnodes in
        (Hashing.stable_hash (nodes.(n) ^ "#" ^ string_of_int v), n))
  in
  Array.sort compare points;
  { nodes; points }

(* Index into [points] of the first point >= h, wrapping to 0. *)
let successor_point t h =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst t.points.(mid) < h then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

let route t key =
  snd t.points.(successor_point t (Hashing.stable_hash key))

let route_name t key = t.nodes.(route t key)

(* Distinct node indices in ring order starting at the key's point: the
   retry order for a dead primary. *)
let successors t key =
  let n = Array.length t.points in
  let start = successor_point t (Hashing.stable_hash key) in
  let seen = Array.make (Array.length t.nodes) false in
  let out = ref [] in
  for k = 0 to n - 1 do
    let node = snd t.points.((start + k) mod n) in
    if not seen.(node) then (
      seen.(node) <- true;
      out := node :: !out)
  done;
  List.rev !out
