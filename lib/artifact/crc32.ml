(* Eagerly initialised: a top-level [lazy] here would race [Lazy.force]
   from concurrent domains (any --jobs > 1 artifact path) and can raise
   CamlinternalLazy.Undefined.  Building the table at module
   initialisation costs ~2k trivial iterations once, and module
   initialisation happens before any domain is spawned.

   The table and the accumulation loop work on plain [int]s — every
   intermediate fits in 32 bits, so native ints carry the exact u32
   semantics without the boxed-[Int32] allocation a byte-at-a-time loop
   would otherwise pay on every input byte.  The verdict server CRCs
   every frame it receives, so this loop is protocol hot path, not just
   artifact-load path. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let bytes buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Crc32.bytes: range out of bounds";
  let t = table in
  let c = ref 0xFFFF_FFFF in
  for i = pos to pos + len - 1 do
    c := t.((!c lxor Bytes.get_uint8 buf i) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFF_FFFF)

let all buf = bytes buf ~pos:0 ~len:(Bytes.length buf)
(* [bytes] only reads its input, so a string is checked in place *)
let string s = all (Bytes.unsafe_of_string s)
