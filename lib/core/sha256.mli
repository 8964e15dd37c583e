(** SHA-256 (FIPS 180-4), pure OCaml over [Bytes].

    The one content hash of the tree.  It names every function
    ({!System.func_digest}), every store entry and function-tier blob,
    and is the whole-file digest of each object-file container, which
    is also the identity an artifact fetched from a fleet peer is
    verified against.  An inline image on the wire is named by that
    header digest as the container claims it; the verdict server
    hashes the image only on a cache miss, when it verifies the
    claim.  CRC-32 guards
    section payloads against bit-rot; MD5 remains only in the fleet's
    ring placement, which spreads keys and never names content.

    Domain-safe and allocation-free per 64-byte block; digests of the
    same bytes are identical across processes and platforms.  Message
    words are read with big-endian 32-bit loads and the rounds run
    unrolled eight at a time: on a 2-vCPU Xeon VM (release build, one
    pinned CPU) it hashes 8 KB inputs at 116–125 MB/s, best of 15, against
    79–84 MB/s for the byte-at-a-time reference in [test/sha256_ref.ml]. *)

val digest_length : int
(** 32. *)

val bytes : Bytes.t -> pos:int -> len:int -> string
(** Raw 32-byte digest of [len] bytes starting at [pos]; raises
    [Invalid_argument] when the range is out of bounds. *)

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
