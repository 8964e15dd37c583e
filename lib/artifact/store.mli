(** Content-addressed on-disk cache of IPDS artifacts.

    Entries are keyed by the {!Ipds_core.Sha256.name} of (artifact
    format version, compile options, analysis options, MiniC/MIR source
    text) and live
    at [<dir>/<k₀k₁>/<key>.ipds].  Publishing is atomic (temp file +
    rename), so concurrent processes sharing a directory can only ever
    observe complete files; a truncated, CRC-mismatched or
    version-skewed entry is treated as a miss and rebuilt, never a
    crash.

    Because the key is collision-resistant, the entry stored at a key's
    path doubles as a collision-detection table row: every publish that
    finds the path occupied byte-compares against it, and a
    valid-but-different entry is a counted [store.collisions] event —
    never silently reused, never silently overwritten.

    The {e ambient} store is process-global configuration consulted by
    {!Ipds_workloads.Workloads.system}: it defaults to the
    [IPDS_CACHE_DIR] environment variable and is overridden by the
    [--cache-dir] / [--no-cache] CLI flags.

    Every cache interaction is counted in a process-wide, domain-safe
    [store.*] registry metric ([store.hits], [store.misses],
    [store.corrupt], [store.fn_hits], [store.fn_misses],
    [store.fn_precision_misses], [store.fn_corrupt],
    [store.collisions], [store.publish_failed], [store.bytes_read],
    [store.bytes_written]; the [store.load.ns] and [store.publish.ns]
    timers), which a run report's [metrics] and [runtime] sections
    carry. *)

type t

val create : dir:string -> t
(** The directory is created lazily on first publish. *)

val dir : t -> string

val key :
  source:string ->
  promote:bool ->
  options:Ipds_correlation.Analysis.options ->
  string
(** Hex digest naming the artifact for this configuration; changes
    whenever the source, the compile options, the analysis options or
    {!Object_file.format_version} change. *)

val valid_key : string -> bool
(** Whether a key is well-formed: 2..128 chars of [[A-Za-z0-9._-]], no
    leading dot.  Keys arrive over the wire (artifact fetch/push
    frames), so shape is checked at this boundary — a malformed key is
    a typed miss/failure, never an exception from path construction. *)

val path_of_key : t -> string -> string
(** Test seam: the store-fault and pass smoke tests corrupt or block an
    entry's file on disk.  Raises [Invalid_argument] when the key fails
    {!valid_key}. *)

val load_system : t -> string -> Ipds_core.System.t option
(** [None] on absent, truncated, corrupt, version-skewed or
    malformed-key entries (counted as misses); never raises on bad
    cache contents.  A read failure on an entry that {e exists}
    (EACCES, EIO, ...) additionally counts as [store.corrupt] and emits a
    [store.corrupt] event carrying the errno — an unreadable cache is
    damage to surface, not a cold miss to recompile forever. *)

val load_images : t -> string -> (string * Ipds_core.Image.t) list option
(** {!load_system} through {!Artifact.images_of_bytes}: the checker's
    images only, same counters and the same [None] cases. *)

val publish_system : t -> string -> Ipds_core.System.t -> unit
(** Atomic; IO errors (read-only dir, disk full) are counted as
    [store.publish_failed] and emitted as [store.publish_failed] events but
    do not raise — the cache is an optimisation, not a correctness
    dependency. *)

(** {2 Raw images (fleet artifact sharing)}

    The serve layer moves whole container images between shards; these
    are the store's byte-level endpoints for that traffic. *)

val fetch_image : t -> string -> [ `Image of Bytes.t | `Miss | `Corrupt of string ]
(** The verified raw bytes of entry [key]: the container is fully
    decoded ({!Artifact.of_bytes}) before the bytes are handed out, so
    a corrupt entry is a typed [`Corrupt], never propagated to a peer.
    Malformed keys and absent entries are [`Miss]. *)

val publish_image :
  t -> string -> Bytes.t -> [ `Stored | `Duplicate | `Collision | `Failed of string ]
(** Insert pre-encoded container bytes under [key] through the
    collision-detection table: [`Duplicate] = byte-identical entry
    already present (no write), [`Collision] = a {e different} valid
    entry holds this key (counted, existing entry kept), [`Stored] =
    written (repairing a damaged entry counts as a store).  The caller
    is responsible for having verified untrusted bytes first. *)

(** {2 Function tier}

    Single-function blobs under [<dir>/fn/], addressed by the
    {!Ipds_core.Sha256.name} of the artifact format version and the
    content digest [System.build] assigns each function
    ({!Ipds_core.System.func_info}[.digest]).  This is what makes
    rebuilds incremental at function granularity: a whole-program miss
    still hits here for every function whose digest is unchanged. *)

val func_cache : ?precision:bool -> t -> Ipds_core.System.func_cache
(** The tier as [Ipds_core.System.build ~func_cache] hooks.  A lookup
    misses on an absent or corrupt blob (counted as [store.fn_misses]; a
    damaged, version-skewed or unreadable blob also counts as
    [store.fn_corrupt], like {!load_system}).  With [~precision:true] every
    function-tier miss additionally counts as [store.fn_precision_misses]:
    since precision is part of each function's content digest, flipping
    the precision config shows up as a clean sweep of these misses
    rather than stale hits. *)

(** {2 Ambient store} *)

val set_ambient_dir : string option -> unit
(** [Some dir] enables the ambient store at [dir]; [None] disables it,
    overriding [IPDS_CACHE_DIR]. *)

val ambient : unit -> t option
(** The configured store, initialised from [IPDS_CACHE_DIR] on first
    use unless {!set_ambient_dir} was called. *)
