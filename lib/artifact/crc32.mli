(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte ranges, on
    little- and big-endian hosts.

    Every section of an IPDS object file carries its CRC in the section
    table so a flipped bit anywhere in the payload is detected at load
    time and turned into a cache miss, never silently wrong tables.
    Every verdict-server frame carries one too, computed by the sender
    and checked by the receiver, so this is protocol hot path as well.

    Two kernels sit behind {!bytes}.  Where CPUID reports PCLMULQDQ and
    SSE4.1, a range of at least 64 bytes runs its 16-byte-multiple
    prefix through a C kernel that folds four 128-bit lanes by
    carry-less multiplication and ends in a Barrett reduction; the
    slice-by-8 tables (eight bytes per step) finish the tail.  Shorter
    ranges, and every range on any other host, run the OCaml slice-by-8
    alone, which {!portable_bytes} always uses.  The choice is read
    once, at module initialisation, and nothing else selects it.  Both
    paths give the same CRC for the same bytes on every platform.

    Domain-safe: the C kernel allocates nothing and never enters the
    runtime, and the tables are built at module initialisation.

    On a 2-vCPU Xeon VM with PCLMULQDQ (release build, one pinned CPU,
    best of 7) a 4.7 KB range runs at 0.045 ns/byte through the folding
    kernel (0.21 µs) and 0.90 ns/byte through the slice-by-8 (4.25 µs);
    a 1.5 KB frame takes 0.075 µs against 1.35 µs. *)

val bytes : Bytes.t -> pos:int -> len:int -> int32
(** CRC of [len] bytes starting at [pos].  Raises [Invalid_argument] on
    an out-of-bounds range. *)

val hardware : bool
(** Test seam: test_artifact reports when only the portable kernel ran.
    Whether {!bytes} folds through the PCLMULQDQ kernel on this CPU. *)

val portable_bytes : Bytes.t -> pos:int -> len:int -> int32
(** Test seam: tests check the portable kernel on a host that has
    PCLMULQDQ.  {!bytes} through the slice-by-8 alone, whatever the CPU. *)

val all : Bytes.t -> int32
val string : string -> int32
(** Test seam: test_serve computes expected frame trailers with it. *)
