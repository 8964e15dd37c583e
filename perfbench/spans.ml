(* In-memory spans for the traced run.

   The benchmark wraps each call it makes into a library in a span
   (name, start, end, parent, operation id).  Spans stay in memory
   until the run ends; [write] then dumps them as JSON lines and
   [summary] derives each name's total and self time (its duration
   minus what its child spans cover).  With tracing off [span] is a
   plain call. *)

type t = {
  id : int;
  name : string;
  parent : int;  (* -1 at top level *)
  op : int;
  start : float;
  mutable stop : float;
}

let enabled = ref false
let current_op = ref (-1)  (* -1 outside a closed loop *)
let next_id = ref 0
let stack : t list ref = ref []
let recorded : t list ref = ref []

let now = Unix.gettimeofday

let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = !next_id; name; parent; op = !current_op; start = now (); stop = nan }
    in
    incr next_id;
    stack := s :: !stack;
    let finish () =
      s.stop <- now ();
      stack := List.tl !stack;
      recorded := s :: !recorded
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* An externally timed interval, e.g. one the caller measured around a
   blocking wait. *)
let record name ~start ~stop =
  if !enabled then begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    recorded :=
      { id = !next_id; name; parent; op = !current_op; start; stop } :: !recorded;
    incr next_id
  end

type agg = { count : int; total : float; self : float }

(* [ops_only] keeps the spans recorded inside a closed loop's
   operations (and their untimed checks), dropping set-up and side
   measurements. *)
let summary ?(ops_only = false) () =
  let recorded =
    if ops_only then List.filter (fun s -> s.op >= 0) !recorded else !recorded
  in
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((s.stop -. s.start)
          +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.))
    recorded;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self =
        d -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.
      in
      let a =
        Option.value
          (Hashtbl.find_opt by_name s.name)
          ~default:{ count = 0; total = 0.; self = 0. }
      in
      Hashtbl.replace by_name s.name
        { count = a.count + 1; total = a.total +. d; self = a.self +. self })
    recorded;
  by_name

let get tbl name =
  Option.value (Hashtbl.find_opt tbl name) ~default:{ count = 0; total = 0.; self = 0. }

(* Mean duration per span of [name], in seconds (0 when never entered). *)
let mean_total tbl name =
  let a = get tbl name in
  if a.count = 0 then 0. else a.total /. float_of_int a.count

let write path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\
             \"start\":%.9f,\"end\":%.9f}\n"
            s.id s.name s.parent s.op s.start s.stop)
        (List.rev !recorded))
