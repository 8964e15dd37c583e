exception Past_end

(* Both sides hold pending bits in an int accumulator and move whole
   bytes between it and the buffer.  A field wider than 55 bits goes
   through as two pieces (32 low bits, then the rest), so the
   accumulator never holds more than 62 bits and stays non-negative. *)

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
    reserve t (String.length s);
    String.iter (fun c -> put t 8 (Char.code c)) s

  let bits_written t = (8 * t.len) + t.bits

  let contents t =
    reserve t 1;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr t.acc);
    Bytes.sub t.buf 0 ((bits_written t + 7) / 8)
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
    String.init n (fun _ -> Char.unsafe_chr (take t 8))
end
