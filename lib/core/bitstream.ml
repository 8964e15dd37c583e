exception Past_end

(* Both sides hold pending bits in an int accumulator and move whole
   bytes between it and the buffer.  A field wider than 55 bits goes
   through as two pieces (32 low bits, then the rest), so the
   accumulator never holds more than 62 bits and stays non-negative.
   Between calls it holds fewer than 8 bits: the stream's bit offset.

   A string is a run of 8-bit fields, so it moves as a copy shifted by
   that offset [b]: output byte i is the carried [b] bits below the
   low [8 - b] bits of input byte i, and the input byte's top [b] bits
   carry on.  At offset 0 that is a blit; otherwise the copy loads a
   64-bit word, shifts its low 7 bytes and stores 8, of which the next
   store overwrites the last; bytes go one at a time only for the last
   few. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Unchecked little-endian 64-bit load and store: callers stay inside
   ranges they have checked. *)
let get_le buf i =
  let v = get64u buf i in
  Int64.to_int (if Sys.big_endian then swap64 v else v)

let set_le buf i v =
  let v = Int64.of_int v in
  set64u buf i (if Sys.big_endian then swap64 v else v)

(* Copy [n] bytes of [src] from [si] into [dst] from [di], shifted up
   by [b] (1 ≤ b ≤ 7) bits with [acc] (< 2^b) carried in below the
   first; returns the [b] bits carried out of the last.  Touches no
   byte outside either range. *)
let shifted_copy src si dst di n b acc =
  let acc = ref acc and i = ref 0 in
  while !i + 8 <= n do
    let w = get_le src (si + !i) land 0xFF_FFFF_FFFF_FFFF in
    set_le dst (di + !i) (!acc lor (w lsl b));
    acc := w lsr (56 - b);
    i := !i + 7
  done;
  while !i < n do
    let c = Char.code (Bytes.unsafe_get src (si + !i)) in
    Bytes.unsafe_set dst (di + !i) (Char.unsafe_chr ((!acc lor (c lsl b)) land 0xFF));
    acc := c lsr (8 - b);
    incr i
  done;
  !acc

module Writer = struct
  type t = {
    mutable buf : Bytes.t;
    mutable len : int;  (* bytes flushed into [buf] *)
    mutable acc : int;  (* pending bits, LSB first *)
    mutable bits : int;  (* valid low bits of [acc]; < 8 between calls *)
  }

  let create () = { buf = Bytes.create 64; len = 0; acc = 0; bits = 0 }

  (* Room for [n] more bytes after [len]. *)
  let reserve t n =
    if t.len + n > Bytes.length t.buf then begin
      let bigger = Bytes.create (max (t.len + n) (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end

  (* [width] <= 55, [v] fits, and the caller reserved the bytes. *)
  let put t width v =
    t.acc <- t.acc lor (v lsl t.bits);
    t.bits <- t.bits + width;
    while t.bits >= 8 do
      Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (t.acc land 0xFF));
      t.len <- t.len + 1;
      t.acc <- t.acc lsr 8;
      t.bits <- t.bits - 8
    done

  let push t ~width v =
    if width < 0 || width > 62 then invalid_arg "Bitstream.push: bad width";
    if v < 0 || (width < 62 && v lsr width <> 0) then
      invalid_arg (Printf.sprintf "Bitstream.push: %d does not fit in %d bits" v width);
    reserve t 8;
    if width <= 55 then put t width v
    else begin
      put t 32 (v land 0xFFFF_FFFF);
      put t (width - 32) (v lsr 32)
    end

  let push_string t s =
    let n = String.length s in
    reserve t n;
    if t.bits = 0 then Bytes.blit_string s 0 t.buf t.len n
    else
      t.acc <- shifted_copy (Bytes.unsafe_of_string s) 0 t.buf t.len n t.bits t.acc;
    t.len <- t.len + n

  let bits_written t = (8 * t.len) + t.bits

  let blit_contents t dst pos =
    let n = (bits_written t + 7) / 8 in
    if pos < 0 || pos > Bytes.length dst - n then
      invalid_arg "Bitstream.Writer.blit_contents: no room";
    Bytes.blit t.buf 0 dst pos t.len;
    if t.bits > 0 then Bytes.unsafe_set dst (pos + t.len) (Char.unsafe_chr t.acc)

  let contents t =
    let b = Bytes.create ((bits_written t + 7) / 8) in
    blit_contents t b 0;
    b
end

module Reader = struct
  type t = {
    buf : Bytes.t;
    limit : int;  (* exclusive byte bound *)
    mutable pos : int;  (* next byte to fold into [acc] *)
    mutable acc : int;
    mutable bits : int;  (* valid low bits of [acc] *)
  }

  let of_span buf ~pos ~len =
    if pos < 0 || len < 0 || pos > Bytes.length buf - len then
      invalid_arg "Bitstream.Reader.of_span: span outside the buffer";
    { buf; limit = pos + len; pos; acc = 0; bits = 0 }

  let of_bytes buf = of_span buf ~pos:0 ~len:(Bytes.length buf)
  let bits_left t = (8 * (t.limit - t.pos)) + t.bits

  (* [width] <= 55 and at least [width] bits left. *)
  let take t width =
    while t.bits < width do
      t.acc <- t.acc lor (Char.code (Bytes.unsafe_get t.buf t.pos) lsl t.bits);
      t.bits <- t.bits + 8;
      t.pos <- t.pos + 1
    done;
    let v = t.acc land ((1 lsl width) - 1) in
    t.acc <- t.acc lsr width;
    t.bits <- t.bits - width;
    v

  let pull t ~width =
    if width < 0 || width > 62 then invalid_arg "Bitstream.pull: bad width";
    if width > bits_left t then raise Past_end;
    if width <= 55 then take t width
    else
      let lo = take t 32 in
      lo lor (take t (width - 32) lsl 32)

  let pull_string t n =
    if n < 0 then invalid_arg "Bitstream: negative string length";
    if n > bits_left t / 8 then raise Past_end;
    (* the offset's [bits] are in [acc], so the string's bytes are the
       next [n] of [buf] *)
    let s =
      if t.bits = 0 then Bytes.sub_string t.buf t.pos n
      else begin
        let dst = Bytes.create n in
        t.acc <- shifted_copy t.buf t.pos dst 0 n t.bits t.acc;
        Bytes.unsafe_to_string dst
      end
    in
    t.pos <- t.pos + n;
    s
end
