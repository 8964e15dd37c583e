(** SHA-256 (FIPS 180-4), pure OCaml over [Bytes].

    The one content hash of the tree.  It names every function (each
    {!System.func_info}'s content digest), every store entry and
    function-tier blob, and is the whole-file digest of each
    object-file container, which is also the identity an artifact
    fetched from a fleet peer is verified against.  An inline image on the wire is named by that
    header digest as the container claims it; the verdict server
    hashes the image only on a cache miss, when it verifies the
    claim.  CRC-32 guards
    section payloads against bit-rot; MD5 remains only in the fleet's
    ring placement, which spreads keys and never names content.

    Two compression kernels sit behind one padding routine.  Where
    CPUID reports the x86 SHA extensions (with SSSE3 and SSE4.1),
    {!bytes} runs every 64-byte block through a C kernel built on
    [sha256rnds2] / [sha256msg1] / [sha256msg2]; everywhere else it
    runs the portable OCaml compression, which {!portable_bytes}
    always uses.  The choice is read once, at module initialisation,
    and nothing else selects it.  Both paths give the same digest for
    the same bytes on every platform.

    Domain-safe.  The C kernel allocates nothing and never enters the
    runtime; the OCaml one is allocation-free per block.  Each call
    adds its [len] to the unstable counter [sha256.bytes].

    On a 2-vCPU Xeon VM with the extensions (release build, one
    pinned CPU, best of 15) 8 KiB inputs hash at 0.76–0.80 ns/byte
    through the C kernel and 9.0 ns/byte through the OCaml one, whose
    word loads and eight-round unrolling beat the byte-at-a-time
    reference in [test/sha256_ref.ml] by about a third. *)

val digest_length : int
(** 32. *)

val bytes : Bytes.t -> pos:int -> len:int -> string
(** Raw 32-byte digest of [len] bytes starting at [pos]; raises
    [Invalid_argument] when the range is out of bounds. *)

val hardware : bool
(** Test seam: test_artifact reports when only the portable kernel ran.
    Whether {!bytes} compresses through the SHA-extension kernel on this CPU. *)

val portable_bytes : Bytes.t -> pos:int -> len:int -> string
(** Test seam: tests check the portable kernel on a host that has the
    extensions.  {!bytes} through the portable OCaml kernel whatever the CPU,
    so the tests can check both paths on a host that has the extensions. *)

val to_hex : string -> string
(** Lowercase hex of a raw digest (or any string). *)

val hex_bytes : Bytes.t -> string
val hex_string : string -> string

val name : string list -> string
(** Lowercase hex SHA-256 of the parts, each prefixed by its length as
    8 big-endian bytes.  The encoding is injective, so two part lists
    share a name only through a SHA-256 collision: [name ["ab"; "c"]],
    [name ["a"; "bc"]] and [name ["abc"]] all differ, as do [name []]
    and [name [""]].  Every content name in the tree is built here. *)
