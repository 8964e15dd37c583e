(** Binary table images.

    The compiler "attaches BSVs, BCVs and BATs to the program binary" and
    conveys per-function metadata through a function information table
    (paper §5.4, Figure 6).  This module serializes one function's
    {!Image.t} into its image and loads it back: a byte-aligned metadata
    header (name, entry PC, hash parameters, node count) followed by the
    bit-packed BCV and the BAT, whose CSR rows are written as the
    paper's linked lists (a head pointer per row, a next pointer per
    node).  The [.ipds] artifact ([Ipds_artifact.Artifact]) carries one
    such image per function.  The packed payload is exactly
    {!Image.sizes} minus the BSV (which is runtime state, initialized to
    all-unknown at activation).

    A decoded image is structurally equal to the one encoded — tested
    property. *)

val function_image : entry_pc:int -> Image.t -> Bytes.t

val decode_image : Bytes.t -> pos:int -> len:int -> int * Image.t
(** Inverse of {!function_image} for the image in [len] bytes at
    [pos]: the entry PC and the flat image the checker runs on.  Raises
    {!Bitstream.Past_end} on a truncated image and [Invalid_argument]
    on a malformed one. *)

val payload_bits : Image.t -> int
(** Test seam: test_core checks the packed image length against
    {!Image.sizes}.  Packed BCV+BAT bits: [sizes.bcv_bits + sizes.bat_bits] of
    {!Image.sizes}, which is what {!function_image} writes after its header
    (tested). *)
