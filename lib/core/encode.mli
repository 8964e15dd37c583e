(** Binary table images.

    The compiler "attaches BSVs, BCVs and BATs to the program binary" and
    conveys per-function metadata through a function information table
    (paper §5.4, Figure 6).  This module serializes one function's
    tables into its image and loads it back: a byte-aligned metadata
    header (name, entry PC, hash parameters, node count) followed by the
    bit-packed BCV and BAT.  The [.ipds] artifact
    ([Ipds_artifact.Artifact]) carries one such image per function.  The packed payload is exactly
    {!Tables.sizes} minus the BSV (which is runtime state, initialized to
    all-unknown at activation).

    A checker built from a decoded image behaves identically to one built
    from the in-memory tables — tested property. *)

val function_image : entry_pc:int -> Tables.t -> Bytes.t
val decode_function : Bytes.t -> int * Tables.t * Image.t
(** Inverse of {!function_image}: the entry PC, the tables (the
    debug-only [slot_of_iid] field is not serialized and comes back
    empty) and the flat checker image they were derived from,
    structurally identical to [Image.of_tables] of the tables.  Raises
    {!Bitstream.Past_end} on a truncated image and [Invalid_argument]
    on a malformed one. *)

val decode_image : Bytes.t -> pos:int -> len:int -> int * Image.t
(** {!decode_function} of the image in [len] bytes at [pos], without
    deriving the list-view tables: the entry PC and the flat image the
    checker runs on.  Same exceptions. *)

val payload_bits : Tables.t -> int
(** Packed BCV+BAT bits — must equal
    [sizes.bcv_bits + sizes.bat_bits] (tested). *)
