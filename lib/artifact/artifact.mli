(** Versioned, checksummed IPDS object files ("[.ipds]"), format v4.

    The paper's deployment model has the compiler attach the packed
    BSV/BCV/BAT images to the binary and the IPDS unit load them at run
    time (§5).  An artifact is exactly that shippable image: a
    {!Object_file} container with —

    - ["code"]: the MIR program, printed by {!Ipds_mir.Printer} and
      parsed back by {!Ipds_mir.Parser};
    - ["layout"]: the code layout ({!Ipds_mir.Layout.entries}),
      bit-packed with {!Ipds_core.Bitstream};
    - ["index"]: per-function metadata (name, entry PC, branch count,
      SHA-256 content digest, checked-branch ids), bit-packed;
    - ["f0"], ["f1"], …: one packed table image per function, from
      {!Ipds_core.Encode.function_image}, in program order.

    Function granularity is what makes the incremental cache work: each
    function's tables live in their own section keyed (via the index) by
    the per-function content digest ({!Ipds_core.System.func_info}
    [.digest]), and the same per-function encoding is reused for the
    standalone blobs of the store's function tier
    ({!func_image}/{!func_of_image}).  Older containers (v1's
    monolithic ["tables"] section, v2's MD5 whole-file digest, v3's MD5
    function digests in ["index"]) fail the container version check
    and load as a full cache miss.

    Loading rebuilds an {!Ipds_core.System.t} without running the MiniC
    front end or the correlation analysis: each function's
    {!Ipds_core.Image.t} is decoded, the checked set and the BAT
    edge/entry actions are reconstructed from its BCV bits, rows and
    nodes through the collision-free hash (slots map back to branch
    iids), and every redundant field is
    cross-checked against the code section — disagreement raises
    {!Object_file.Corrupt}.  The one lossy field is
    [result.depends] (analysis provenance, not needed by the runtime),
    which loads as [[]].

    Guarantee (tested): [load (save sys)] yields structurally equal
    images (so bit-identical {!Ipds_core.Image.sizes}) and a checker
    with identical verdicts. *)

exception Corrupt of string
(** Alias of {!Object_file.Corrupt}: any integrity failure — bad magic,
    version skew, digest/CRC mismatch, malformed or inconsistent
    sections. *)

val to_bytes : Ipds_core.System.t -> Bytes.t
val of_bytes : Bytes.t -> Ipds_core.System.t

val images_of_bytes : Bytes.t -> (string * Ipds_core.Image.t) list
(** The checker-only load: each function's name and flat image, in
    program order, decoded from the [index] and [f0], [f1], …
    sections alone.  It verifies the container digest and every section
    CRC, and every image passes {!Ipds_core.Image.validate}.  The
    [code] and [layout] sections are never decoded, so the cross-checks
    {!of_bytes} makes against the program are not made; for bytes that
    {!of_bytes} accepts, the images are structurally equal to the
    [image] fields of its functions.  Raises {!Corrupt}. *)

val save_file : string -> Ipds_core.System.t -> unit
(** Atomic: temp file + rename. *)

val load_file : string -> Ipds_core.System.t
(** Raises {!Corrupt} or [Sys_error]. *)

val is_artifact_file : string -> bool
(** Sniffs the {!Object_file.magic} (false for unreadable files). *)

(** {2 Single-function blobs}

    The store's function-granular cache tier: one function's metadata
    and packed tables in a self-checking container, addressed by its
    content digest. *)

val func_image : Ipds_core.System.func_info -> Bytes.t

val func_of_image :
  digest:string ->
  layout:Ipds_mir.Layout.t ->
  Ipds_mir.Func.t ->
  Bytes.t ->
  Ipds_core.System.func_info
(** Decode a blob previously written by {!func_image} for a function
    whose current content digest is [digest].  Raises {!Corrupt} on any
    integrity failure or if the blob does not match the function
    ([digest], name, entry PC under the current layout, branch
    population) — callers treat that as a cache miss. *)

(** {2 Inspection} *)

type func_summary = {
  fname : string;
  entry_pc : int;
  n_branches : int;
  digest : string;
  sizes : Ipds_core.Image.sizes;
}

type inspection = {
  file : Object_file.info;
  funcs : func_summary list option;
      (** [None] when the tables/code sections are too damaged to decode *)
}

val inspect_bytes : Bytes.t -> inspection
(** Test seam: test_artifact checks per-section damage reports without a file;
    the CLI goes through {!inspect_file}.  Raises {!Corrupt} only if the
    container header is unreadable; per-section damage is reported in
    {!Object_file.info}. *)

val inspect_file : string -> inspection
val pp_inspection : Format.formatter -> inspection -> unit
