(* The byte-at-a-time CRC-32 (IEEE 802.3, polynomial 0xEDB88320), kept
   as the reference that both kernels of [Ipds_artifact.Crc32] (the
   PCLMULQDQ fold and the slice-by-8) are checked against in test_serve
   and test_artifact.  Not used by any library. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let bytes buf ~pos ~len =
  let c = ref 0xFFFF_FFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Bytes.get_uint8 buf i) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFF_FFFF)

(* The first range on which [crc] differs from [bytes], as a message:
   every length 0–2048 at offsets 0–7, the lengths around the fold
   kernel's 64-byte floor and 16-byte steps at the same offsets, and a
   whole 1 MB buffer. *)
let first_difference crc =
  let pattern i = Char.chr (((i * 7919) lxor (i lsr 3) lxor (i lsr 11)) land 0xFF) in
  let buf = Bytes.init (2048 + 8) pattern in
  let big = Bytes.init (1 lsl 20) pattern in
  let ranges =
    List.concat_map
      (fun pos ->
        List.init 2049 (fun len -> (buf, pos, len))
        @ List.map (fun len -> (buf, pos, len)) [ 63; 64; 65; 79; 80; 127; 128 ])
      (List.init 8 Fun.id)
    @ [ (big, 0, Bytes.length big); (big, 3, Bytes.length big - 3) ]
  in
  List.find_map
    (fun (b, pos, len) ->
      if crc b ~pos ~len = bytes b ~pos ~len then None
      else Some (Printf.sprintf "differs from the reference at pos %d len %d" pos len))
    ranges

(* Both kernels of [Ipds_artifact.Crc32] against [bytes]: the first
   difference of either, named by kernel.  [Crc32.bytes] takes the
   PCLMULQDQ fold where CPUID reports it; [portable_bytes] always the
   slice-by-8. *)
let kernels_difference () =
  let module Crc32 = Ipds_artifact.Crc32 in
  List.find_map
    (fun (kernel, crc) ->
      Option.map (Printf.sprintf "%s: CRC-32 %s" kernel) (first_difference crc))
    [ ("dispatching", Crc32.bytes); ("portable", Crc32.portable_bytes) ]
