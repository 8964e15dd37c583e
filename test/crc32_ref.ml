(* The byte-at-a-time CRC-32 (IEEE 802.3, polynomial 0xEDB88320), kept
   as the reference that the slice-by-8 [Ipds_artifact.Crc32] is
   checked against in test_serve.  Not used by any library. *)

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
