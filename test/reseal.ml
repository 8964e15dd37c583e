(* Re-sealing edited bytes, shared by the tests that forge input: after
   an edit the frame's CRC, or the container's section CRCs and SHA-256,
   are recomputed, so the edit gets past the checksums and reaches the
   checks behind them. *)

module P = Ipds_serve.Protocol
module Obj = Ipds_artifact.Object_file

(* Rewrite a frame's CRC trailer after its bytes were edited. *)
let frame b =
  let body = Bytes.length b - P.trailer_bytes in
  Bytes.set_int32_le b body (Ipds_artifact.Crc32.bytes b ~pos:0 ~len:body)

(* A frame with an arbitrary tag and payload and a valid CRC. *)
let forge ~tag payload =
  let plen = String.length payload in
  let b = Bytes.create (P.header_bytes + plen + P.trailer_bytes) in
  Bytes.blit_string P.magic 0 b 0 4;
  Bytes.set b 4 (Char.chr P.version);
  Bytes.set b 5 (Char.chr tag);
  Bytes.set_int32_le b 6 (Int32.of_int plen);
  Bytes.blit_string payload 0 b P.header_bytes plen;
  frame b;
  Bytes.to_string b

(* The container [good] with section [section] replaced by [payload], or
   with [payload] appended last as [section] when it has none; every
   section CRC and the whole-file digest are re-sealed. *)
let container ~section payload good =
  let sections = Obj.of_bytes good in
  let sections =
    if List.mem_assoc section sections then
      List.map
        (fun (n, p) -> if String.equal n section then (n, payload) else (n, p))
        sections
    else sections @ [ (section, payload) ]
  in
  Obj.to_bytes ~sections
