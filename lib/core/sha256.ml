(* FIPS 180-4 SHA-256 over [Bytes]: one padding routine in OCaml and
   two compression kernels behind it.

   [compress_hw] is the C kernel in [sha256_stubs.c], which runs whole
   64-byte blocks through the x86 SHA extensions.  It is used when
   CPUID reported them at module initialisation ([hardware]); the
   choice is made there and nowhere else.  [compress_portable] is the
   OCaml compression below, the only path on every other CPU and the
   one [portable_bytes] always takes.  Both kernels carry the chaining
   state as 32 bytes of big-endian words, the digest's own layout, so
   the digest is the state once the last block is in.

   The portable kernel keeps the discipline of [Ipds_artifact.Crc32]:
   everything is eagerly initialised plain-[int] arithmetic (no
   [lazy], no boxed [Int32] in the compression loop), so the module is
   domain-safe for any [--jobs > 1] build or artifact path and
   allocation-free per block.  Native 63-bit ints hold every 32-bit
   intermediate exactly; sums are masked back to 32 bits where they
   feed a later step.

   Message words come in as big-endian 32-bit loads.  A 32-bit rotate
   right by [n] is bits [n .. n + 31] of the word duplicated into the
   upper half, [x lor (x lsl 32)]: for the largest rotation used (25)
   the top bit read is 56, well inside the 63-bit int.  The 64 rounds
   run as 8 iterations of 8 let-bound rounds; each round only rebinds
   [d] and [h] of its (a .. h), and the next round reads the same eight
   names rotated by one, so after 8 rounds every name is back in its
   role and the loop carries the state in eight mutable locals. *)

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

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Unchecked big-endian u32 load: callers stay inside a range that
   [bytes] has bounds-checked. *)
let get_u32_be buf i =
  let v = get32u buf i in
  Int32.to_int (if Sys.big_endian then v else swap32 v) land mask

let[@inline] sigma0 a =
  let x = a lor (a lsl 32) in
  ((x lsr 2) lxor (x lsr 13) lxor (x lsr 22)) land mask

let[@inline] sigma1 e =
  let x = e lor (e lsl 32) in
  ((x lsr 6) lxor (x lsr 11) lxor (x lsr 25)) land mask

(* one 64-byte block at [pos]; [h] is the chaining state and [w] is
   caller-provided scratch so a multi-block message reuses one
   schedule array *)
let process h w buf pos =
  for t = 0 to 15 do
    Array.unsafe_set w t (get_u32_be buf (pos + (4 * t)))
  done;
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let dx = x lor (x lsl 32) and dy = y lor (y lsl 32) in
    let s0 = ((dx lsr 7) lxor (dx lsr 18)) land mask lxor (x lsr 3) in
    let s1 = ((dy lsr 17) lxor (dy lsr 19)) land mask lxor (y lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1)
      land mask)
  done;
  let ra = ref h.(0)
  and rb = ref h.(1)
  and rc = ref h.(2)
  and rd = ref h.(3)
  and re = ref h.(4)
  and rf = ref h.(5)
  and rg = ref h.(6)
  and rh = ref h.(7) in
  for i = 0 to 7 do
    let t = 8 * i in
    let a = !ra and b = !rb and c = !rc and d = !rd in
    let e = !re and f = !rf and g = !rg and h = !rh in
    let t1 =
      h + sigma1 e + (g lxor (e land (f lxor g)))
      + Array.unsafe_get k t + Array.unsafe_get w t
    in
    let d = (d + t1) land mask in
    let h = (t1 + sigma0 a + ((a land b) lor (c land (a lor b)))) land mask in
    let t1 =
      g + sigma1 d + (f lxor (d land (e lxor f)))
      + Array.unsafe_get k (t + 1) + Array.unsafe_get w (t + 1)
    in
    let c = (c + t1) land mask in
    let g = (t1 + sigma0 h + ((h land a) lor (b land (h lor a)))) land mask in
    let t1 =
      f + sigma1 c + (e lxor (c land (d lxor e)))
      + Array.unsafe_get k (t + 2) + Array.unsafe_get w (t + 2)
    in
    let b = (b + t1) land mask in
    let f = (t1 + sigma0 g + ((g land h) lor (a land (g lor h)))) land mask in
    let t1 =
      e + sigma1 b + (d lxor (b land (c lxor d)))
      + Array.unsafe_get k (t + 3) + Array.unsafe_get w (t + 3)
    in
    let a = (a + t1) land mask in
    let e = (t1 + sigma0 f + ((f land g) lor (h land (f lor g)))) land mask in
    let t1 =
      d + sigma1 a + (c lxor (a land (b lxor c)))
      + Array.unsafe_get k (t + 4) + Array.unsafe_get w (t + 4)
    in
    let h = (h + t1) land mask in
    let d = (t1 + sigma0 e + ((e land f) lor (g land (e lor f)))) land mask in
    let t1 =
      c + sigma1 h + (b lxor (h land (a lxor b)))
      + Array.unsafe_get k (t + 5) + Array.unsafe_get w (t + 5)
    in
    let g = (g + t1) land mask in
    let c = (t1 + sigma0 d + ((d land e) lor (f land (d lor e)))) land mask in
    let t1 =
      b + sigma1 g + (a lxor (g land (h lxor a)))
      + Array.unsafe_get k (t + 6) + Array.unsafe_get w (t + 6)
    in
    let f = (f + t1) land mask in
    let b = (t1 + sigma0 c + ((c land d) lor (e land (c lor d)))) land mask in
    let t1 =
      a + sigma1 f + (h lxor (f land (g lxor h)))
      + Array.unsafe_get k (t + 7) + Array.unsafe_get w (t + 7)
    in
    let e = (e + t1) land mask in
    let a = (t1 + sigma0 b + ((b land c) lor (d land (b lor c)))) land mask in
    ra := a;
    rb := b;
    rc := c;
    rd := d;
    re := e;
    rf := f;
    rg := g;
    rh := h
  done;
  h.(0) <- (h.(0) + !ra) land mask;
  h.(1) <- (h.(1) + !rb) land mask;
  h.(2) <- (h.(2) + !rc) land mask;
  h.(3) <- (h.(3) + !rd) land mask;
  h.(4) <- (h.(4) + !re) land mask;
  h.(5) <- (h.(5) + !rf) land mask;
  h.(6) <- (h.(6) + !rg) land mask;
  h.(7) <- (h.(7) + !rh) land mask

(* [n] blocks of [buf] from [pos] into the state [st] *)
let compress_portable buf pos n st =
  let h = Array.init 8 (fun i -> get_u32_be st (4 * i)) in
  let w = Array.make 64 0 in
  for b = 0 to n - 1 do
    process h w buf (pos + (64 * b))
  done;
  Array.iteri (fun i x -> Bytes.set_int32_be st (4 * i) (Int32.of_int x)) h

(* The C kernel only reads [buf] and writes [st], so it allocates
   nothing and the GC never runs during the call. *)
external compress_hw :
  Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> Bytes.t -> unit
  = "ipds_sha256_compress_byte" "ipds_sha256_compress"
[@@noalloc]

external hw_available : unit -> bool = "ipds_sha256_hw_available"

let hardware = hw_available ()

(* unstable: a server hashes on cache misses, which depend on how
   sessions interleave in its LRU *)
let m_bytes = Ipds_obs.Registry.counter ~stable:false "sha256.bytes"

(* FIPS 180-4 §5.3.3 initial hash value, as big-endian words *)
let iv =
  let b = Bytes.create digest_length in
  Array.iteri
    (fun i x -> Bytes.set_int32_be b (4 * i) (Int32.of_int x))
    [|
      0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
      0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
    |];
  Bytes.unsafe_to_string b

let[@inline] digest compress buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Sha256.bytes: range out of bounds";
  Ipds_obs.Registry.add m_bytes len;
  let st = Bytes.of_string iv in
  let full = len / 64 in
  compress buf pos full st;
  (* padding: 0x80, zeros, 8-byte big-endian bit length (§5.1.1) *)
  let rem = len - (64 * full) in
  let tail = Bytes.make (if rem >= 56 then 128 else 64) '\000' in
  Bytes.blit buf (pos + (64 * full)) tail 0 rem;
  Bytes.set_uint8 tail rem 0x80;
  let tl = Bytes.length tail in
  Bytes.set_int64_be tail (tl - 8) (Int64.of_int (len * 8));
  compress tail 0 (tl / 64) st;
  Bytes.unsafe_to_string st

let portable_bytes buf ~pos ~len = digest compress_portable buf ~pos ~len

let bytes buf ~pos ~len =
  if hardware then digest compress_hw buf ~pos ~len
  else digest compress_portable buf ~pos ~len

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
