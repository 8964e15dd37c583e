(* Two kernels behind one entry point (see crc32.mli): the PCLMULQDQ
   fold in crc32_stubs.c, where CPUID reports it, and this slice-by-8.

   Slice-by-8: eight 256-entry tables, where [table.(k * 256 + n)] is
   the CRC contribution of byte [n] followed by [k] zero bytes, fold
   eight input bytes per step with two 32-bit loads; the byte loop
   finishes the tail.

   Eagerly initialised: a top-level [lazy] here would race [Lazy.force]
   from concurrent domains (any --jobs > 1 artifact path) and can raise
   CamlinternalLazy.Undefined.  Building the tables at module
   initialisation costs ~4k trivial iterations once, and module
   initialisation happens before any domain is spawned.

   The tables and the accumulation loop work on plain [int]s — every
   intermediate fits in 32 bits, so native ints carry the exact u32
   semantics without boxed [Int32] arithmetic.  The verdict server CRCs
   every frame it receives, so this loop is protocol hot path, not just
   artifact-load path. *)
let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let c = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(c land 0xFF) lxor (c lsr 8)
    done
  done;
  t

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Unchecked little-endian u32 load: callers stay inside a range that
   [bytes] has bounds-checked. *)
let get_u32_le buf i =
  let v = get32u buf i in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xFFFF_FFFF

let check_range buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Crc32.bytes: range out of bounds"

(* The register [c] advanced over [len] bytes from [pos]. *)
let slice8 c buf ~pos ~len =
  let t = table in
  let tb i = Array.unsafe_get t i in
  let c = ref c in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = get_u32_le buf !i lxor !c and hi = get_u32_le buf (!i + 4) in
    c :=
      tb ((7 * 256) + (lo land 0xFF))
      lxor tb ((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor tb ((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor tb ((4 * 256) + (lo lsr 24))
      lxor tb ((3 * 256) + (hi land 0xFF))
      lxor tb ((2 * 256) + ((hi lsr 8) land 0xFF))
      lxor tb (256 + ((hi lsr 16) land 0xFF))
      lxor tb (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := tb ((!c lxor Char.code (Bytes.unsafe_get buf j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c

(* The C kernel only reads [buf], so it allocates nothing and the GC
   never runs during the call. *)
external fold_hw :
  Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "ipds_crc32_fold_byte" "ipds_crc32_fold"
[@@noalloc]

external hw_available : unit -> bool = "ipds_crc32_hw_available"

let hardware = hw_available ()

let finish c = Int32.of_int (c lxor 0xFFFF_FFFF)

let portable_bytes buf ~pos ~len =
  check_range buf ~pos ~len;
  finish (slice8 0xFFFF_FFFF buf ~pos ~len)

(* The folding kernel takes the 16-byte-multiple prefix of a range of
   at least 64 bytes; the tables finish the rest. *)
let bytes buf ~pos ~len =
  check_range buf ~pos ~len;
  if hardware && len >= 64 then begin
    let folded = len land lnot 15 in
    let c = fold_hw buf pos folded 0xFFFF_FFFF in
    finish (slice8 c buf ~pos:(pos + folded) ~len:(len - folded))
  end
  else finish (slice8 0xFFFF_FFFF buf ~pos ~len)

let all buf = bytes buf ~pos:0 ~len:(Bytes.length buf)
(* [bytes] only reads its input, so a string is checked in place *)
let string s = all (Bytes.unsafe_of_string s)
