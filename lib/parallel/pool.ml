type task = unit -> unit

(* Pool activity depends on scheduling and domain count, so all of these
   are registered unstable: they surface in the runtime section of reports
   and never participate in the deterministic metrics object. *)
let m_maps = Ipds_obs.Registry.counter ~stable:false "pool.maps"
let m_tasks_worker = Ipds_obs.Registry.counter ~stable:false "pool.tasks.worker"
let m_tasks_caller = Ipds_obs.Registry.counter ~stable:false "pool.tasks.caller"
let m_jobs = Ipds_obs.Registry.gauge ~stable:false "pool.jobs"

type t = {
  mutex : Mutex.t;
  work : Condition.t;
      (* signalled on: new work enqueued, a map call completing, shutdown *)
  queue : task Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  jobs : int;
}

let default_jobs () =
  match Option.bind (Sys.getenv_opt "IPDS_JOBS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | Some _ | None -> max 1 (Domain.recommended_domain_count () - 1)

let jobs t = t.jobs

let rec worker t =
  Mutex.lock t.mutex;
  worker_locked t

and worker_locked t =
  if not (Queue.is_empty t.queue) then begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    Ipds_obs.Registry.incr m_tasks_worker;
    task ();
    worker t
  end
  else if t.closed then Mutex.unlock t.mutex
  else begin
    Condition.wait t.work t.mutex;
    worker_locked t
  end

let create ?jobs () =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let t =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [];
      jobs;
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  Ipds_obs.Registry.gauge_max m_jobs jobs;
  t

let map t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs ->
      Ipds_obs.Registry.incr m_maps;
      let items = Array.of_list xs in
      let n = Array.length items in
      let results = Array.make n None in
      let pending = ref n (* guarded by t.mutex *) in
      let run_task i =
        let r =
          match f items.(i) with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        Mutex.lock t.mutex;
        results.(i) <- Some r;
        decr pending;
        if !pending = 0 then Condition.broadcast t.work;
        Mutex.unlock t.mutex
      in
      Mutex.lock t.mutex;
      for i = 0 to n - 1 do
        Queue.push (fun () -> run_task i) t.queue
      done;
      Condition.broadcast t.work;
      (* The caller helps until every task of THIS call has settled.  It
         may execute tasks of other in-flight maps — that is what makes
         nested maps safe: a thread is only ever blocked when all of its
         outstanding tasks are running on other threads, and the deepest
         tasks never block. *)
      let rec help () =
        if !pending > 0 then
          if not (Queue.is_empty t.queue) then begin
            let task = Queue.pop t.queue in
            Mutex.unlock t.mutex;
            Ipds_obs.Registry.incr m_tasks_caller;
            task ();
            Mutex.lock t.mutex;
            help ()
          end
          else begin
            Condition.wait t.work t.mutex;
            help ()
          end
      in
      help ();
      Mutex.unlock t.mutex;
      Array.iter
        (function
          | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
          | Some (Ok _) -> ()
          | None -> assert false)
        results;
      Array.to_list
        (Array.map
           (function
             | Some (Ok v) -> v
             | Some (Error _) | None -> assert false)
           results)

let map' pool f xs =
  match pool with
  | None -> List.map f xs
  | Some t -> map t f xs

let shutdown t =
  Mutex.lock t.mutex;
  if t.closed then Mutex.unlock t.mutex
  else begin
    t.closed <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let with_opt ~jobs f =
  if jobs <= 1 then f None else with_pool ~jobs (fun t -> f (Some t))
