(* The original bit-at-a-time codec, kept as the reference that
   [Ipds_core.Bitstream] is checked against in test_codec: same
   fields, same bytes, same point of running out of input (here an
   [Invalid_argument]).  Not used by any library. *)

module Writer = struct
  type t = {
    mutable buf : Bytes.t;
    mutable bit : int;  (* next bit position *)
  }

  let create () = { buf = Bytes.make 64 '\000'; bit = 0 }

  let ensure t bits =
    let needed = (t.bit + bits + 7) / 8 in
    if needed > Bytes.length t.buf then begin
      let bigger = Bytes.make (max needed (2 * Bytes.length t.buf)) '\000' in
      Bytes.blit t.buf 0 bigger 0 (Bytes.length t.buf);
      t.buf <- bigger
    end

  let push t ~width v =
    if width < 0 || width > 62 then invalid_arg "Bitstream.push: bad width";
    if v < 0 || (width < 62 && v lsr width <> 0) then
      invalid_arg (Printf.sprintf "Bitstream.push: %d does not fit in %d bits" v width);
    ensure t width;
    for k = 0 to width - 1 do
      if (v lsr k) land 1 = 1 then begin
        let pos = t.bit + k in
        let byte = Bytes.get_uint8 t.buf (pos / 8) in
        Bytes.set_uint8 t.buf (pos / 8) (byte lor (1 lsl (pos mod 8)))
      end
    done;
    t.bit <- t.bit + width

  let bits_written t = t.bit
  let contents t = Bytes.sub t.buf 0 ((t.bit + 7) / 8)
end

module Reader = struct
  type t = {
    buf : Bytes.t;
    mutable bit : int;
  }

  let of_bytes buf = { buf; bit = 0 }

  let pull t ~width =
    if width < 0 || width > 62 then invalid_arg "Bitstream.pull: bad width";
    if t.bit + width > 8 * Bytes.length t.buf then
      invalid_arg "Bitstream.pull: past end of stream";
    let v = ref 0 in
    for k = 0 to width - 1 do
      let pos = t.bit + k in
      let byte = Bytes.get_uint8 t.buf (pos / 8) in
      if (byte lsr (pos mod 8)) land 1 = 1 then v := !v lor (1 lsl k)
    done;
    t.bit <- t.bit + width;
    !v

end
