type scope =
  | Program
  | Function

type ('a, 'b) t = {
  name : string;
  scope : scope;
  f : 'a -> 'b;
  units : Ipds_obs.Registry.counter;
  span : string;
}

(* Registration order is pipeline order: core's passes are created by
   top-level lets in dependency order, so [report] reads like the
   pipeline.  Guarded by a mutex — creation is rare (module init). *)
let registry_mutex = Mutex.create ()
let registry : (string * scope) list ref = ref []  (* reverse order *)

let register name scope =
  Mutex.lock registry_mutex;
  (match List.assoc_opt name !registry with
  | Some s when s = scope -> ()
  | Some _ ->
      Mutex.unlock registry_mutex;
      invalid_arg
        (Printf.sprintf "Pass: %s re-registered with a different scope" name)
  | None -> registry := (name, scope) :: !registry);
  Mutex.unlock registry_mutex

let v ~name ~scope f =
  register name scope;
  {
    name;
    scope;
    f;
    units = Ipds_obs.Registry.counter (Printf.sprintf "pass.%s.units" name);
    span = "pass." ^ name;
  }

let scope_name = function Program -> "program" | Function -> "function"
let name t = t.name
let scope t = t.scope

let run t x =
  Ipds_obs.Registry.incr t.units;
  Ipds_obs.Span.time t.span (fun () -> t.f x)

let map ?pool t xs =
  match t.scope with
  | Program ->
      invalid_arg (Printf.sprintf "Pass.map: %s is a program-wide pass" t.name)
  | Function -> Ipds_parallel.Pool.map' pool (run t) xs

type report_row = {
  r_name : string;
  r_scope : scope;
  r_units : int;
  r_runs : int;
  r_seconds : float;
}

let units name =
  Ipds_obs.Registry.counter_value
    (Ipds_obs.Registry.counter (Printf.sprintf "pass.%s.units" name))

let report () =
  Mutex.lock registry_mutex;
  let entries = List.rev !registry in
  Mutex.unlock registry_mutex;
  List.map
    (fun (name, scope) ->
      let runs, seconds = Ipds_obs.Span.get ("pass." ^ name) in
      { r_name = name; r_scope = scope; r_units = units name; r_runs = runs;
        r_seconds = seconds })
    entries

let render_report rows =
  String.concat "\n"
    (Printf.sprintf "%-12s %-8s %8s %12s" "pass" "scope" "units" "seconds"
    :: List.map
         (fun r ->
           Printf.sprintf "%-12s %-8s %8d %12.4f" r.r_name (scope_name r.r_scope)
             r.r_units r.r_seconds)
         rows)
