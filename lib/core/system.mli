(** The whole IPDS compile-side pipeline: correlation analysis, table
    construction and the function information table (paper Figure 6).

    The pipeline is expressed as declared {!Ipds_pass.Pass} stages —
    [layout] and [prepare] are program-wide, [digest], [analyze] and
    [tables] are per-function — so every build is timed and counted
    per pass, and the per-function stages can fan out over an
    {!Ipds_parallel.Pool} or be skipped entirely on an incremental
    cache hit. *)

type func_info = {
  entry_pc : int;
  digest : string;
      (** 64-char hex SHA-256 name of everything the per-function stage
          can observe (printed body, base PC, program-wide slice
          preimage, options): two builds give a function the same
          digest exactly when its analysis and tables are byte-identical,
          unless SHA-256 collides.  Keys the incremental per-function
          artifact cache *)
  image : Image.t;
      (** the function's BSV/BCV/BAT tables in their one flat form;
          built once by the [tables] pass (or decoded straight from the
          artifact section) so every checker shares it *)
  result : Ipds_correlation.Analysis.result;
  refine : Ipds_correlation.Refine.stats option;
      (** present iff this build ran the refine pass (precision on);
          build-time telemetry only — not serialized into artifacts, so
          loaded [func_info]s carry [None] *)
}

type t = {
  program : Ipds_mir.Program.t;
  layout : Ipds_mir.Layout.t;
  funcs : (string * func_info) list;
      (** deterministic program order — printing and stats iterate this *)
  by_name : (string, func_info) Hashtbl.t;
      (** O(1) lookups for the checker; always construct via {!make} so
          it stays consistent with [funcs] *)
}

val make :
  program:Ipds_mir.Program.t ->
  layout:Ipds_mir.Layout.t ->
  funcs:(string * func_info) list ->
  t
(** The only way to assemble a [t] by hand (artifact loading); derives
    [by_name] from [funcs]. *)

type func_cache = {
  lookup :
    digest:string ->
    layout:Ipds_mir.Layout.t ->
    Ipds_mir.Func.t ->
    func_info option;
  publish : digest:string -> func_info -> unit;
}
(** Hooks the artifact layer plugs into {!build}: [lookup] may return a
    previously published [func_info] for the same digest (skipping the
    analyze/tables passes for that function), [publish] is called for
    every freshly analyzed function. *)

val build :
  ?options:Ipds_correlation.Analysis.options ->
  ?pool:Ipds_parallel.Pool.t ->
  ?func_cache:func_cache ->
  Ipds_mir.Program.t ->
  t
(** Run the pipeline.  The per-function stage fans out over [pool]
    (order-preserving, so the result is bit-identical to the
    sequential build for any job count) and consults [func_cache]
    before analyzing each function. *)

val build_count : unit -> int
(** How many builds have run in this process: the [system.builds]
    registry counter, which {!Ipds_obs.Registry.reset} zeroes. *)

val info : t -> string -> func_info
(** Test seam: tests look up one function's digest and image by name.  Raises
    [Invalid_argument] for unknown functions. *)

val mem : t -> string -> bool
(** Is the function defined in this system?  The verdict server uses
    this to distinguish calls to defined functions (which push checker
    frames) from extern calls (which the inline checker never sees). *)

val image : t -> string -> Image.t
(** Raises [Invalid_argument] for unknown functions. *)

val new_checker : t -> Checker.t
(** A fresh checker over this system's flat images. *)

type size_stats = {
  per_func : (string * Image.sizes) list;
  avg_bsv_bits : float;
  avg_bcv_bits : float;
  avg_bat_bits : float;
}

val size_stats : t -> size_stats
(** The Figure 8 measurement: average per-function table sizes in bits. *)

val checked_branch_count : t -> int
val total_branch_count : t -> int
