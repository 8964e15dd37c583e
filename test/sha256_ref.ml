(* The byte-at-a-time, rolled FIPS 180-4 SHA-256 as it was before
   [Ipds_core.Sha256] loaded 32-bit words and unrolled its rounds, kept
   as the reference the library is checked against in test_artifact.
   Not used by any library.

   Same implementation discipline as [Ipds_artifact.Crc32]: everything
   is eagerly initialised plain-[int] arithmetic (no [lazy], no boxed
   [Int32] in the compression loop), so the module is domain-safe for
   any [--jobs > 1] build or artifact path and allocation-free per
   round.  Native
   63-bit ints hold every 32-bit intermediate exactly; results are
   masked back to 32 bits after each addition. *)

let digest_length = 32
let mask = 0xFFFF_FFFF

(* first 32 bits of the fractional parts of the cube roots of the
   first 64 primes (FIPS 180-4 §4.2.2) *)
let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

(* one 64-byte block at [pos]; [w] is caller-provided scratch so a
   multi-block message reuses one schedule array *)
let process h w buf pos =
  for t = 0 to 15 do
    w.(t) <-
      (Bytes.get_uint8 buf (pos + (4 * t)) lsl 24)
      lor (Bytes.get_uint8 buf (pos + (4 * t) + 1) lsl 16)
      lor (Bytes.get_uint8 buf (pos + (4 * t) + 2) lsl 8)
      lor Bytes.get_uint8 buf (pos + (4 * t) + 3)
  done;
  for t = 16 to 63 do
    let x = w.(t - 15) and y = w.(t - 2) in
    let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
    let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask
  done;
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = (!hh + s1 + ch + k.(t) + w.(t)) land mask in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land mask in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let bytes buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Sha256.bytes: range out of bounds";
  let h =
    [|
      0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
      0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
    |]
  in
  let w = Array.make 64 0 in
  let full = len / 64 in
  for b = 0 to full - 1 do
    process h w buf (pos + (64 * b))
  done;
  (* padding: 0x80, zeros, 8-byte big-endian bit length (§5.1.1) *)
  let rem = len - (64 * full) in
  let tail = Bytes.make (if rem >= 56 then 128 else 64) '\000' in
  Bytes.blit buf (pos + (64 * full)) tail 0 rem;
  Bytes.set_uint8 tail rem 0x80;
  let bits = len * 8 and tl = Bytes.length tail in
  for i = 0 to 7 do
    Bytes.set_uint8 tail (tl - 1 - i) ((bits lsr (8 * i)) land 0xFF)
  done;
  process h w tail 0;
  if tl = 128 then process h w tail 64;
  String.init digest_length (fun i ->
      Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xFF))

let to_hex d =
  let hex = "0123456789abcdef" in
  String.init
    (2 * String.length d)
    (fun i ->
      let b = Char.code d.[i / 2] in
      hex.[if i mod 2 = 0 then b lsr 4 else b land 0xF])

let hex_bytes buf = to_hex (bytes buf ~pos:0 ~len:(Bytes.length buf))

(* [bytes] only reads its input, so a string is hashed in place *)
let hex_string s = hex_bytes (Bytes.unsafe_of_string s)

(* each part as an 8-byte big-endian length, then its bytes: no two
   part lists share a preimage, whatever bytes the parts hold *)
let name parts =
  let b = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_int64_be b (Int64.of_int (String.length p));
      Buffer.add_string b p)
    parts;
  hex_string (Buffer.contents b)
