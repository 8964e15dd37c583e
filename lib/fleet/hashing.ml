(* One stable hash for everything fleet-shaped: ring point placement
   needs a hash that is identical across processes and OCaml versions,
   which rules out [Hashtbl.hash].  It only spreads keys; it never
   names content (the artifact store addresses content by SHA-256), so
   collision resistance buys nothing here and Stdlib's [Digest] (MD5,
   no extra dependency, fast) is enough: the first eight digest bytes,
   folded little-endian and masked positive, give a uniform 62-bit
   point. *)

let stable_hash s =
  let d = Digest.string s in
  let b i = Char.code d.[i] in
  let v =
    b 0
    lor (b 1 lsl 8)
    lor (b 2 lsl 16)
    lor (b 3 lsl 24)
    lor (b 4 lsl 32)
    lor (b 5 lsl 40)
    lor (b 6 lsl 48)
    lor (b 7 lsl 56)
  in
  v land max_int
