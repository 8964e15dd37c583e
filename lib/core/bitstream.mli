(** Bit-granular serialization: the one codec behind the packed table
    images, the [.ipds] artifact sections and every wire payload.
    Fields are written/read LSB-first within a little-endian byte
    stream, a whole byte at a time through an accumulator on each side. *)

exception Past_end
(** A read needed more bits than the stream or span has left.  Raised
    before the field is consumed, by every reader operation. *)

module Writer : sig
  type t

  val create : unit -> t
  val push : t -> width:int -> int -> unit
  (** Append [width] bits (0 ≤ width ≤ 62); the value must fit.
      Raises [Invalid_argument] otherwise, before writing anything. *)

  val push_string : t -> string -> unit
  (** Append every byte as an 8-bit field (no length prefix): a blit
      at a byte boundary, else a copy shifted by the stream's bit
      offset seven bytes at a time.  On 4 646 bytes (2-vCPU Xeon VM,
      one pinned CPU): 1.2–1.6 GB/s at offset 7, 2.9–4.5 GB/s at
      offset 0, against 110–160 MB/s for one field per byte. *)

  val bits_written : t -> int

  val contents : t -> Bytes.t
  (** The bytes written so far; the last one is zero-padded. *)

  val blit_contents : t -> Bytes.t -> int -> unit
  (** [blit_contents t dst pos] writes {!contents} into [dst] from
      [pos] without building it first.  Raises [Invalid_argument] when
      they do not fit. *)
end

module Reader : sig
  type t

  val of_bytes : Bytes.t -> t

  val of_span : Bytes.t -> pos:int -> len:int -> t
  (** A reader over [buf[pos, pos+len)], without copying it.  Raises
      [Invalid_argument] when the span is not inside [buf]. *)

  val bits_left : t -> int
  (** Bits not yet read. *)

  val pull : t -> width:int -> int
  (** Read [width] bits (0 ≤ width ≤ 62, else [Invalid_argument]). *)

  val pull_string : t -> int -> string
  (** [n] 8-bit fields as a string, copied the way {!Writer.push_string}
      writes them (1.1–1.3 GB/s at offset 7 on the same machine).
      Raises [Invalid_argument] for a negative [n] and {!Past_end} when
      fewer than [n] whole bytes are left. *)
end
