module Reg = Ipds_obs.Registry

(* A resident entry's [used] is the memo's clock at its last hit or
   load; the LRU victim is the resident entry with the smallest. *)
type 'v entry = { value : 'v; mutable used : int }

type 'v state =
  | Pending
  | Ready of 'v entry

(* hits/computed of an unbounded memo depend only on the multiset of
   requested keys, so they are stable; a bounded memo's hits depend on
   request order, so it leaves them alone.  waits counts Pending
   encounters, which depend on scheduling, so it is not stable. *)
let m_hits = Reg.counter "memo.hits"
let m_computed = Reg.counter "memo.computed"
let m_waits = Reg.counter ~stable:false "memo.waits"

type ('k, 'v) t = {
  mutex : Mutex.t;
  cond : Condition.t;
  tbl : ('k, 'v state) Hashtbl.t;
  capacity : int option;
  (* Mirrors of the counters, kept under [mutex] so [stats] is an
     exact point-in-time cut. *)
  mutable clock : int;
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable computed : int;
  p_hits : Reg.counter option;
  p_misses : Reg.counter option;
  p_evictions : Reg.counter option;
}

type stats = { hits : int; misses : int; evictions : int; size : int }

let create ?capacity ?metrics_prefix () =
  Option.iter
    (fun c -> if c < 1 then invalid_arg "Memo.create: capacity must be >= 1")
    capacity;
  let counter suffix =
    Option.map (fun p -> Reg.counter ~stable:false (p ^ suffix)) metrics_prefix
  in
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    tbl = Hashtbl.create 16;
    capacity;
    clock = 0;
    size = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    computed = 0;
    p_hits = counter "_hits";
    p_misses = counter "_misses";
    p_evictions = counter "_evictions";
  }

let bump c = Option.iter Reg.incr c

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* Called with [mutex] held when an insert took [size] one past the
   bound: drop the least-recently-used resident entry.  The entry just
   inserted carries the newest stamp, so it is never the victim. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k st acc ->
        match (st, acc) with
        | Ready e, Some (_, used) when e.used >= used -> acc
        | Ready e, _ -> Some (k, e.used)
        | Pending, _ -> acc)
      t.tbl None
  in
  Option.iter
    (fun (k, _) ->
      Hashtbl.remove t.tbl k;
      t.size <- t.size - 1;
      t.evictions <- t.evictions + 1)
    victim

let fetch t k load =
  let stable = Option.is_none t.capacity in
  Mutex.lock t.mutex;
  let rec get () =
    match Hashtbl.find_opt t.tbl k with
    | Some (Ready e) ->
        e.used <- tick t;
        t.hits <- t.hits + 1;
        Mutex.unlock t.mutex;
        if stable then Reg.incr m_hits;
        bump t.p_hits;
        `Hit e.value
    | Some Pending ->
        Reg.incr m_waits;
        Condition.wait t.cond t.mutex;
        get ()
    | None -> (
        Hashtbl.replace t.tbl k Pending;
        t.misses <- t.misses + 1;
        Mutex.unlock t.mutex;
        bump t.p_misses;
        let release () =
          Mutex.lock t.mutex;
          Hashtbl.remove t.tbl k;
          Condition.broadcast t.cond;
          Mutex.unlock t.mutex
        in
        match load () with
        | Ok v ->
            Mutex.lock t.mutex;
            Hashtbl.replace t.tbl k (Ready { value = v; used = tick t });
            t.size <- t.size + 1;
            t.computed <- t.computed + 1;
            let evict =
              match t.capacity with Some cap -> t.size > cap | None -> false
            in
            if evict then evict_lru t;
            Condition.broadcast t.cond;
            Mutex.unlock t.mutex;
            if stable then Reg.incr m_computed;
            if evict then bump t.p_evictions;
            `Loaded v
        | Error e ->
            release ();
            `Err e
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            release ();
            Printexc.raise_with_backtrace e bt)
  in
  get ()

type never = |

let find_or_add t k compute =
  match fetch t k (fun () -> (Ok (compute ()) : (_, never) result)) with
  | `Hit v | `Loaded v -> v
  | `Err (_ : never) -> .

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let computed t = locked t (fun () -> t.computed)

let mem t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl k with Some (Ready _) -> true | _ -> false)

let stats t =
  locked t (fun () ->
      { hits = t.hits; misses = t.misses; evictions = t.evictions; size = t.size })

(* {2 Invariants as predicates}

   Each is a total check over the table under the lock, asserted by
   the tests after concurrent interleavings. *)

(* The resident entries' stamps and the [size] counter, in one cut. *)
let snapshot t =
  locked t (fun () ->
      ( Hashtbl.fold
          (fun _ st acc ->
            match st with Ready e -> e.used :: acc | Pending -> acc)
          t.tbl [],
        t.size ))

let within_capacity t stamps =
  match t.capacity with None -> true | Some cap -> List.length stamps <= cap

let capacity_ok t = within_capacity t (fst (snapshot t))

let check_invariants t =
  let stamps, size = snapshot t in
  [
    ("capacity_ok", within_capacity t stamps);
    ("size_exact", List.length stamps = size);
    ( "recency_distinct",
      List.length (List.sort_uniq Int.compare stamps) = List.length stamps );
  ]
