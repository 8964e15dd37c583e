(** The generic container of an IPDS object file: magic, format version
    and a checksummed section table.

    Layout (all integers little-endian):
    {v
    0   8   magic "IPDSOBJF"
    8   4   format version (u32)
    12  4   section count (u32)
    16  32  SHA-256 digest of everything from byte 48 to end of file
    48  20n section table: 8-byte NUL-padded name, u32 offset,
            u32 length, u32 CRC-32 of the payload
    ...     payloads, in table order
    v}

    The digest is the file's content address: collision-resistant, so a
    byte-identical digest from an untrusted peer names byte-identical
    content.  Version 4 is current.  v2 files carried a 16-byte MD5
    there and v3 files MD5 function digests inside the artifact's
    ["index"] section; both fail the version check and load as a clean
    miss (the store rebuilds them).

    {!of_bytes} verifies the magic, version, whole-file digest and every
    section CRC; any mismatch raises {!Corrupt}, which the store layer
    treats as a cache miss.  {!info_of_bytes} is the forgiving variant
    for [ipds inspect]: it reports per-section CRC status instead of
    raising, so a corrupted file can still be described. *)

exception Corrupt of string

val magic : string
val format_version : int

val header_bytes : int
(** Test seam: tests forge and edit containers at known offsets.  Fixed header
    size (everything before the section table). *)

val to_bytes : sections:(string * Bytes.t) list -> Bytes.t
(** Section names must be 1–8 bytes and unique; raises
    [Invalid_argument] otherwise. *)

val header_digest : string -> string option
(** The lowercase hex of the whole-file digest at offset 16, as the
    header claims it: read, neither computed nor verified.  [None] for
    a payload shorter than {!header_bytes}. *)

val of_bytes : Bytes.t -> (string * Bytes.t) list
(** Fully verified sections in file order; raises {!Corrupt}. *)

val spans_of_bytes : Bytes.t -> (string * int * int) list
(** {!of_bytes} without the copies: the same checks, then each
    section's [(name, offset, length)] inside the given buffer. *)

type section_info = {
  s_name : string;
  s_offset : int;
  s_length : int;
  s_crc : int32;
  s_crc_ok : bool;
}

type info = {
  version : int;
  file_bytes : int;
  digest_hex : string;  (** SHA-256 digest stored in the header *)
  digest_ok : bool;
  sections : section_info list;
}

val info_of_bytes : Bytes.t -> info
(** Raises {!Corrupt} only when the header or section table itself is
    unreadable (bad magic, truncated table). *)

val read_file : string -> Bytes.t
(** Raises [Sys_error] on IO failure. *)

val write_file_atomic : string -> Bytes.t -> unit
(** Write to a unique temporary file in the destination directory, then
    [Sys.rename] over the target — readers never observe a torn file. *)
