(* Each counter and gauge owns [shard_count] Atomic cells, and each
   histogram [histogram_shards] rows of them; a domain writes the cell
   indexed by its id, so concurrent increments from distinct domains
   rarely collide on a cache line and never spin against each other for
   long.  Reads merge all shards with a commutative operation (sum or
   max), which is what makes stable metrics independent of scheduling. *)

let shard_count = 64
let shard () = (Domain.self () :> int) land (shard_count - 1)
let make_cells ?(n = shard_count) () = Array.init n (fun _ -> Atomic.make 0)
let reset_cells cells = Array.iter (fun c -> Atomic.set c 0) cells
let sum_cells cells = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 cells

(* A histogram holds a row of bucket cells per shard, so it takes fewer
   shards than a counter: eight rows keep a timer near 3 KB instead of
   24 KB, and domains still rarely share a cell. *)
let histogram_shards = 8

type counter = { c_cells : int Atomic.t array }
type gauge = { g_cells : int Atomic.t array }

type histogram = {
  h_bounds : int array;
  h_cells : int Atomic.t array;  (* shard-major: shard * stride + bucket *)
  h_sum : int Atomic.t array;
  h_count : int Atomic.t array;
}

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_histogram of histogram

let registry : (string, bool * metric) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let register name stable build describe =
  Mutex.lock registry_mutex;
  let m =
    match Hashtbl.find_opt registry name with
    | Some (_, existing) -> existing
    | None ->
        let m = build () in
        Hashtbl.replace registry name (stable, m);
        m
  in
  Mutex.unlock registry_mutex;
  match describe m with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Obs.Registry: %s has another kind" name)

let counter ?(stable = true) name =
  register name stable
    (fun () -> M_counter { c_cells = make_cells () })
    (function M_counter c -> Some c | M_gauge _ | M_histogram _ -> None)

let incr c = ignore (Atomic.fetch_and_add c.c_cells.(shard ()) 1)
let add c n = ignore (Atomic.fetch_and_add c.c_cells.(shard ()) n)
let counter_value c = sum_cells c.c_cells
let counter_reset c = reset_cells c.c_cells

let gauge ?(stable = true) name =
  register name stable
    (fun () -> M_gauge { g_cells = make_cells () })
    (function M_gauge g -> Some g | M_counter _ | M_histogram _ -> None)

let gauge_max g v =
  let cell = g.g_cells.(shard ()) in
  let rec raise_to () =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then raise_to ()
  in
  raise_to ()

let gauge_value g = Array.fold_left (fun acc c -> max acc (Atomic.get c)) 0 g.g_cells
let gauge_reset g = reset_cells g.g_cells

let default_bounds =
  (* powers of four: 1 .. ~1M, a decade-ish spread for counts, sizes and
     latencies alike *)
  Array.init 11 (fun i -> 1 lsl (2 * i))

let histogram ?(stable = true) ?(bounds = default_bounds) name =
  let ok = ref (Array.length bounds > 0) in
  Array.iteri (fun i b -> if i > 0 && b <= bounds.(i - 1) then ok := false) bounds;
  if not !ok then invalid_arg "Obs.Registry.histogram: bounds not increasing";
  register name stable
    (fun () ->
      let stride = Array.length bounds + 1 in
      M_histogram
        {
          h_bounds = Array.copy bounds;
          h_cells = make_cells ~n:(histogram_shards * stride) ();
          h_sum = make_cells ~n:histogram_shards ();
          h_count = make_cells ~n:histogram_shards ();
        })
    (function M_histogram h -> Some h | M_counter _ | M_gauge _ -> None)

(* Top-level, not a local closure over [bounds] and [v], so observing
   allocates nothing. *)
let rec bucket_of bounds v i =
  if i >= Array.length bounds || v <= bounds.(i) then i
  else bucket_of bounds v (i + 1)

let observe h v =
  let s = shard () land (histogram_shards - 1) in
  let stride = Array.length h.h_bounds + 1 in
  let b = bucket_of h.h_bounds v 0 in
  ignore (Atomic.fetch_and_add h.h_cells.((s * stride) + b) 1);
  ignore (Atomic.fetch_and_add h.h_sum.(s) v);
  ignore (Atomic.fetch_and_add h.h_count.(s) 1)

let histogram_reset h =
  reset_cells h.h_cells;
  reset_cells h.h_sum;
  reset_cells h.h_count

(* Powers of four from 2^10 ns (~1 us) to 2^36 ns (~69 s): one decade-ish
   spread that covers a single pass on one function up to a whole bench
   target. *)
let timer_bounds = Array.init 14 (fun i -> 1 lsl (10 + (2 * i)))
let timer name = histogram ~stable:false ~bounds:timer_bounds name

(* Wall-clock since [t0] in whole nanoseconds, clamped at 0 because the
   clock may step back.  [t0] stays an unboxed float: nothing here
   allocates. *)
let[@inline] elapsed_ns t0 =
  max 0 (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))

let time h f =
  let t0 = Unix.gettimeofday () in
  match f () with
  | v ->
      observe h (elapsed_ns t0);
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      observe h (elapsed_ns t0);
      Printexc.raise_with_backtrace e bt

type histogram_view = {
  bounds : int array;
  counts : int array;
  count : int;
  sum : int;
}

let histogram_value h =
  let stride = Array.length h.h_bounds + 1 in
  let counts = Array.make stride 0 in
  for s = 0 to histogram_shards - 1 do
    for b = 0 to stride - 1 do
      counts.(b) <- counts.(b) + Atomic.get h.h_cells.((s * stride) + b)
    done
  done;
  {
    bounds = Array.copy h.h_bounds;
    counts;
    count = sum_cells h.h_count;
    sum = sum_cells h.h_sum;
  }

type value =
  | Counter of int
  | Gauge of int
  | Histogram of histogram_view

let snapshot ?(stability = `All) () =
  Mutex.lock registry_mutex;
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry [] in
  Mutex.unlock registry_mutex;
  entries
  |> List.filter (fun (_, (stable, _)) ->
         match stability with
         | `All -> true
         | `Stable -> stable
         | `Unstable -> not stable)
  |> List.map (fun (name, (_, m)) ->
         ( name,
           match m with
           | M_counter c -> Counter (counter_value c)
           | M_gauge g -> Gauge (gauge_value g)
           | M_histogram h -> Histogram (histogram_value h) ))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let json_of_value = function
  | Counter n -> Json.Int n
  | Gauge n -> Json.Obj [ ("type", Json.String "gauge"); ("value", Json.Int n) ]
  | Histogram v ->
      let buckets =
        List.init
          (Array.length v.counts)
          (fun i ->
            Json.Obj
              [
                ( "le",
                  if i < Array.length v.bounds then Json.Int v.bounds.(i)
                  else Json.Null );
                ("n", Json.Int v.counts.(i));
              ])
      in
      Json.Obj
        [
          ("type", Json.String "histogram");
          ("count", Json.Int v.count);
          ("sum", Json.Int v.sum);
          ("buckets", Json.List buckets);
        ]

let snapshot_json ?stability () =
  Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) (snapshot ?stability ()))

let reset () =
  Mutex.lock registry_mutex;
  let metrics = Hashtbl.fold (fun _ (_, m) acc -> m :: acc) registry [] in
  Mutex.unlock registry_mutex;
  List.iter
    (function
      | M_counter c -> counter_reset c
      | M_gauge g -> gauge_reset g
      | M_histogram h -> histogram_reset h)
    metrics
