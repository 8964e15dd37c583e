(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte ranges,
    eight bytes per step (slice-by-8), on little- and big-endian hosts.

    Every section of an IPDS object file carries its CRC in the section
    table so a flipped bit anywhere in the payload is detected at load
    time and turned into a cache miss, never silently wrong tables. *)

val bytes : Bytes.t -> pos:int -> len:int -> int32
(** CRC of [len] bytes starting at [pos].  Raises [Invalid_argument] on
    an out-of-bounds range. *)

val all : Bytes.t -> int32
val string : string -> int32
(** Test seam: test_serve computes expected frame trailers with it. *)
