module Mir = Ipds_mir
module Corr = Ipds_correlation
module Pass = Ipds_pass.Pass

type func_info = {
  entry_pc : int;
  digest : string;
  image : Image.t;
  result : Corr.Analysis.result;
  refine : Corr.Refine.stats option;
      (** present iff this build ran the refine pass (precision on);
          not serialized, so artifact loads carry [None] *)
}

type t = {
  program : Mir.Program.t;
  layout : Mir.Layout.t;
  funcs : (string * func_info) list;
  by_name : (string, func_info) Hashtbl.t;
}

let make ~program ~layout ~funcs =
  let by_name = Hashtbl.create (max 16 (List.length funcs)) in
  List.iter (fun (name, info) -> Hashtbl.replace by_name name info) funcs;
  { program; layout; funcs; by_name }

(* The compile pipeline as declared passes.  Program-scope passes run
   once per build; Function-scope passes run once per unit of work, so
   their unit counters expose cache effectiveness (a warm incremental
   build runs [digest] for every function but [analyze]/[tables] only
   for the invalidated ones). *)

let pass_layout = Pass.v ~name:"layout" ~scope:Pass.Program Mir.Layout.make

let pass_prepare =
  Pass.v ~name:"prepare" ~scope:Pass.Program
    (fun ((options : Corr.Analysis.options), program) ->
      Corr.Context.prepare ~mode:options.Corr.Analysis.summary_mode program)

(* Everything the per-function stage can observe, named by one hash:
   the printed body (instructions, var ids), the base PC (table hashes
   key absolute branch PCs, so layout shifts must invalidate), the
   program-wide slice the function reads, and the option set. *)
let func_digest ~options ~layout pw (f : Mir.Func.t) =
  Sha256.name
    [
      "ipds-func";
      Corr.Analysis.options_fingerprint options;
      string_of_int (Mir.Layout.func_base layout f.Mir.Func.name);
      Corr.Context.slice_fingerprint pw f;
      Mir.Printer.func_to_string f;
    ]

let pass_digest =
  Pass.v ~name:"digest" ~scope:Pass.Function
    (fun (options, layout, pw, f) -> func_digest ~options ~layout pw f)

let pass_analyze =
  Pass.v ~name:"analyze" ~scope:Pass.Function (fun (options, pw, f) ->
      Corr.Analysis.analyze_func ~options pw f)

let pass_refine =
  Pass.v ~name:"refine" ~scope:Pass.Function (fun (options, pw, f) ->
      Corr.Refine.analyze ~options pw f)

let pass_tables =
  Pass.v ~name:"tables" ~scope:Pass.Function (fun (layout, result) ->
      Image.build ~layout result)

type func_cache = {
  lookup :
    digest:string -> layout:Mir.Layout.t -> Mir.Func.t -> func_info option;
  publish : digest:string -> func_info -> unit;
}

let builds = Atomic.make 0
let build_count () = Atomic.get builds
let m_builds = Ipds_obs.Registry.counter "system.builds"

let build ?options ?pool ?func_cache program =
  let options = Option.value options ~default:Corr.Analysis.default_options in
  Atomic.incr builds;
  Ipds_obs.Registry.incr m_builds;
  Ipds_obs.Span.time "core.build" (fun () ->
      let layout = Pass.run pass_layout program in
      let pw = Pass.run pass_prepare (options, program) in
      let compile_func (f : Mir.Func.t) =
        let name = f.Mir.Func.name in
        let digest = Pass.run pass_digest (options, layout, pw, f) in
        let cached =
          match func_cache with
          | Some c -> c.lookup ~digest ~layout f
          | None -> None
        in
        match cached with
        | Some info -> (name, info)
        | None ->
            let result, refine =
              match options.Corr.Analysis.precision with
              | Corr.Analysis.Off ->
                  (Pass.run pass_analyze (options, pw, f), None)
              | Corr.Analysis.Refine _ ->
                  let result, stats = Pass.run pass_refine (options, pw, f) in
                  (result, Some stats)
            in
            let image = Pass.run pass_tables (layout, result) in
            let info =
              {
                entry_pc = Mir.Layout.func_base layout name;
                digest;
                image;
                result;
                refine;
              }
            in
            (match func_cache with
            | Some c -> c.publish ~digest info
            | None -> ());
            (name, info)
      in
      (* Fan the per-function stage out; [map'] preserves list order, so
         the result is bit-identical to the sequential build. *)
      let funcs =
        Ipds_parallel.Pool.map' pool compile_func program.Mir.Program.funcs
      in
      make ~program ~layout ~funcs)

(* The memo is keyed by the option fingerprint and the printed program
   themselves — not by the structural [(Program.t, options)] pair, whose
   deep compare walked the whole IR on every lookup and whose
   closure-bearing [options] made hashing fragile.  The key never leaves
   the process, so it is not hashed and cannot collide: the fingerprint
   holds no NUL, so the first NUL ends it. *)
let cache : (string, t) Ipds_parallel.Memo.t = Ipds_parallel.Memo.create ()

let build_key ~options program =
  Corr.Analysis.options_fingerprint options
  ^ "\x00"
  ^ Mir.Printer.program_to_string program

let cached_build ?options ?pool program =
  let options = Option.value options ~default:Corr.Analysis.default_options in
  Ipds_parallel.Memo.find_or_add cache (build_key ~options program) (fun () ->
      build ~options ?pool program)

let seed_cache ?options program t =
  let options = Option.value options ~default:Corr.Analysis.default_options in
  ignore
    (Ipds_parallel.Memo.find_or_add cache (build_key ~options program)
       (fun () -> t))

let info t name =
  (* exception-style find: no [Some] box on the checker's call hot path *)
  match Hashtbl.find t.by_name name with
  | i -> i
  | exception Not_found ->
      invalid_arg (Printf.sprintf "System: unknown function %s" name)

let mem t name = Hashtbl.mem t.by_name name

let image t name = (info t name).image
let new_checker t = Checker.create ~lookup:(image t)

type size_stats = {
  per_func : (string * Image.sizes) list;
  avg_bsv_bits : float;
  avg_bcv_bits : float;
  avg_bat_bits : float;
}

let size_stats t =
  let per_func = List.map (fun (n, i) -> (n, Image.sizes i.image)) t.funcs in
  let n = float_of_int (max 1 (List.length per_func)) in
  let sum f = float_of_int (List.fold_left (fun acc (_, s) -> acc + f s) 0 per_func) in
  {
    per_func;
    avg_bsv_bits = sum (fun s -> s.Image.bsv_bits) /. n;
    avg_bcv_bits = sum (fun s -> s.Image.bcv_bits) /. n;
    avg_bat_bits = sum (fun s -> s.Image.bat_bits) /. n;
  }

let checked_branch_count t =
  List.fold_left
    (fun acc (_, i) -> acc + List.length i.result.Corr.Analysis.checked)
    0 t.funcs

let total_branch_count t =
  List.fold_left
    (fun acc (_, i) ->
      acc + List.length (Mir.Func.branches i.result.Corr.Analysis.func))
    0 t.funcs
