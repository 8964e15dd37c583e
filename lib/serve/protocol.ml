(* The verdict-server wire format: length-prefixed binary frames with a
   versioned magic and a CRC-32 trailer, payloads bit-packed with
   {!Ipds_core.Bitstream}, except the event bits of [Branch_events],
   which the C kernels of wire_stubs.c pack and unpack.

   Frame layout (integers little-endian):

     0   4   magic "IPSV"
     4   1   protocol version
     5   1   frame tag
     6   4   payload length (u32)
     10  n   payload
     10+n 4  CRC-32 of bytes [0, 10+n)

   Decoding never raises: every way a frame can be damaged maps to a
   typed {!error_code}.  The magic and version are checked before the
   CRC so a stream from the wrong protocol gets a precise error; the
   CRC covers the header too, so a flipped bit anywhere in a frame —
   including its length field — is detected. *)

module Bs = Ipds_core.Bitstream
module Event = Ipds_machine.Event

let magic = "IPSV"
let version = 2
let header_bytes = 10
let trailer_bytes = 4
let default_max_frame = 4 * 1024 * 1024

type error_code =
  | Bad_magic
  | Bad_version
  | Bad_crc
  | Oversized
  | Truncated
  | Unknown_frame
  | Malformed
  | Bad_state
  | Unknown_artifact
  | Corrupt_artifact
  | Timeout
  | Server_error
  | Overloaded
  | Unavailable

type err = { code : error_code; detail : string }

(* One row per code; a code's position is its wire byte. *)
let error_codes =
  [|
    (Bad_magic, "bad-magic");
    (Bad_version, "bad-version");
    (Bad_crc, "bad-crc");
    (Oversized, "oversized");
    (Truncated, "truncated");
    (Unknown_frame, "unknown-frame");
    (Malformed, "malformed");
    (Bad_state, "bad-state");
    (Unknown_artifact, "unknown-artifact");
    (Corrupt_artifact, "corrupt-artifact");
    (Timeout, "timeout");
    (Server_error, "server-error");
    (Overloaded, "overloaded");
    (Unavailable, "unavailable");
  |]

let error_code_to_int code =
  let rec find i = if fst error_codes.(i) = code then i else find (i + 1) in
  find 0

let error_code_to_string code = snd error_codes.(error_code_to_int code)

let error_code_of_int n =
  if n >= 0 && n < Array.length error_codes then Some (fst error_codes.(n))
  else None

type summary = { total_events : int; total_branches : int; total_alarms : int }

type frame =
  | Load_key of string
  | Load_image of { name : string; image : string }
  | Begin_trace
  | Branch_events of Event.t list
  | End_trace
  | Fetch_artifact of string
  | Push_artifact of { key : string; image : string }
  | Loaded of { name : string; cached : bool }
  | Trace_started
  | Verdicts of Ipds_core.Checker.alarm list
  | Trace_summary of summary
  | Artifact_data of { key : string; image : string }
  | Artifact_pushed of { key : string; stored : bool }
  | Error of err

let verdict_to_string (a : Ipds_core.Checker.alarm) =
  Printf.sprintf "%s pc=%d expected=%c actual=%c seq=%d" a.fname a.branch_pc
    (Ipds_core.Status.to_char a.expected)
    (if a.actual_taken then 'T' else 'N')
    a.sequence

(* {2 Payload codec}

   Payloads are written and read with {!Bs}: a byte-refilled
   accumulator per side, and readers over the payload span itself, so
   decoding copies nothing but strings it returns.  Every field is at
   most 32 bits wide. *)

exception Malformed_payload of string

let fail m = raise (Malformed_payload m)

(* Full-width int: 31 low bits + 32 high bits reconstructs every 63-bit
   OCaml int exactly, negatives included (bit 62 is the sign bit). *)
let push_int w v =
  Bs.Writer.push w ~width:31 (v land 0x7FFF_FFFF);
  Bs.Writer.push w ~width:32 ((v lsr 31) land 0xFFFF_FFFF)

let pull_int r =
  let lo = Bs.Reader.pull r ~width:31 in
  let hi = Bs.Reader.pull r ~width:32 in
  (hi lsl 31) lor lo

let push_bool w b = Bs.Writer.push w ~width:1 (if b then 1 else 0)
let pull_bool r = Bs.Reader.pull r ~width:1 = 1

let push_string w s =
  push_int w (String.length s);
  Bs.Writer.push_string w s

(* String/list lengths are bounded by the decoder's effective
   [max_frame], not the compile-time default — a server started with a
   larger [--max-frame] must accept payloads that fill it.  The bound
   only rejects absurd lengths before allocation; genuine overruns of
   the actual payload still surface as [Bs.Past_end]. *)
let pull_length ~limit r =
  let n = pull_int r in
  if n < 0 || n > limit then fail "string length out of range";
  n

let pull_string ~limit r = Bs.Reader.pull_string r (pull_length ~limit r)

let push_status w (s : Ipds_core.Status.t) =
  Bs.Writer.push w ~width:2
    (match s with
    | Ipds_core.Status.Taken -> 0
    | Ipds_core.Status.Not_taken -> 1
    | Ipds_core.Status.Unknown -> 2)

let pull_status r : Ipds_core.Status.t =
  match Bs.Reader.pull r ~width:2 with
  | 0 -> Ipds_core.Status.Taken
  | 1 -> Ipds_core.Status.Not_taken
  | 2 -> Ipds_core.Status.Unknown
  | _ -> fail "bad status"

let push_list w push xs =
  push_int w (List.length xs);
  List.iter (push w) xs

let pull_count ~limit r =
  let n = pull_int r in
  if n < 0 || n > limit then fail "list length out of range";
  n

let pull_list ~limit r pull = List.init (pull_count ~limit r) (fun _ -> pull r)

let push_verdict w (a : Ipds_core.Checker.alarm) =
  push_string w a.fname;
  push_int w a.branch_pc;
  push_status w a.expected;
  push_bool w a.actual_taken;
  push_int w a.sequence

let pull_verdict ~limit r : Ipds_core.Checker.alarm =
  let fname = pull_string ~limit r in
  let branch_pc = pull_int r in
  let expected = pull_status r in
  let actual_taken = pull_bool r in
  let sequence = pull_int r in
  { fname; branch_pc; expected; actual_taken; sequence }

(* {2 [Branch_events], wire v2}

   Only the checker's call/ret/branch stream; the layout and the wire
   normal form of a decoded event are in protocol.mli.  The header
   (counts, callee names) is all 8-bit fields from bit 0, so the event
   bits start on a byte boundary.  Both directions go through the flat
   {!batch} layout: the encoder walks the event list into an op/arg
   array and its name table, then one C kernel packs the array's event
   bits and the header is written in front; the decoder reads the
   header, then one C kernel unpacks the event bits into the batch's
   array (wire_stubs.c). *)

let rec pull_varint_from r acc shift =
  let g = Bs.Reader.pull r ~width:8 in
  let acc = acc lor ((g land 0x7F) lsl shift) in
  if g land 0x80 = 0 then acc
  else if shift = 56 then fail "varint too long"
  else pull_varint_from r acc (shift + 7)

let pull_varint r = pull_varint_from r 0 0
let rec varint_bytes v = if v lsr 7 = 0 then 1 else 1 + varint_bytes (v lsr 7)

(* A varint at byte [p] of [b]; returns the position after it. *)
let rec put_varint b p v =
  if v lsr 7 = 0 then begin
    Bytes.unsafe_set b p (Char.unsafe_chr v);
    p + 1
  end
  else begin
    Bytes.unsafe_set b p (Char.unsafe_chr (v land 0x7F lor 0x80));
    put_varint b (p + 1) (v lsr 7)
  end

(* The events a client sends per frame by default.  Scratch that a
   batch grew past [staging_keep] events (for the encoder's bytes,
   [event_room] bytes each) or names is not kept after that batch: the
   encoder's, and each staging's. *)
let default_batch = 1024
let staging_keep = 4 * default_batch

(* An event is at most 2 + 8 × 9 bits. *)
let event_room = 10

(* The two kernels.  [pack ev n body pos] writes the event bits of
   [ev]'s first [n] events into [body] from [pos], the last byte
   zero-padded, and returns the position past them; it needs
   [event_room * n + 8] bytes of room from [pos].  [unpack ev buf p
   limit n k] reads [n] events from byte [p] up to [limit] into [ev],
   which has room for them; it reads eight bytes at once only where
   [p + 8 <= limit], and returns 0, or the first refusal in payload
   order: 1 past the end, 2 a varint over nine groups, 3 a callee
   index outside the [k] names. *)
external pack :
  int array -> (int[@untagged]) -> Bytes.t -> (int[@untagged]) -> (int[@untagged])
  = "ipds_wire_pack_byte" "ipds_wire_pack"
[@@noalloc]

external unpack :
  int array ->
  Bytes.t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "ipds_wire_unpack_byte" "ipds_wire_unpack"
[@@noalloc]

(* The encoder's per-domain scratch: the events in the flat batch
   layout, the bytes they pack into, the callee table in
   first-occurrence order with its index, and the recent callee strings
   by address. *)
module Names = Hashtbl.Make (String)

(* A batch's calls pass a few physical strings, one per call site, so
   up to [recent_slots] of them are remembered by address with their
   index, and a string found there is not hashed again. *)
let recent_slots = 16

type encoder = {
  mutable ev : int array;
  mutable body : Bytes.t;
  mutable table : string array;
  mutable k : int;
  index : int Names.t;
  recent : string array;
  recent_index : int array;
  mutable recent_n : int;
}

let fresh_encoder () =
  {
    ev = Array.make (2 * default_batch) 0;
    body = Bytes.create ((event_room * default_batch) + 8);
    table = Array.make 64 "";
    k = 0;
    index = Names.create 16;
    recent = Array.make recent_slots "";
    recent_index = Array.make recent_slots 0;
    recent_n = 0;
  }

let encoder_key = Domain.DLS.new_key fresh_encoder

(* [callee]'s index in the table, adding it on first sight. *)
let table_index t callee =
  match Names.find t.index callee with
  | i -> i
  | exception Not_found ->
      let i = t.k in
      if i = Array.length t.table then begin
        let bigger = Array.make (2 * i) "" in
        Array.blit t.table 0 bigger 0 i;
        t.table <- bigger
      end;
      t.table.(i) <- callee;
      Names.replace t.index callee i;
      t.k <- i + 1;
      i

let rec recent_slot t callee j =
  if j = t.recent_n then -1
  else if Array.unsafe_get t.recent j == callee then j
  else recent_slot t callee (j + 1)

let callee_index t callee =
  let j = recent_slot t callee 0 in
  if j >= 0 then Array.unsafe_get t.recent_index j
  else begin
    let i = table_index t callee in
    if t.recent_n < recent_slots then begin
      t.recent.(t.recent_n) <- callee;
      t.recent_index.(t.recent_n) <- i;
      t.recent_n <- t.recent_n + 1
    end;
    i
  end

let grow_events (t : encoder) =
  let bigger = Array.make (2 * Array.length t.ev) 0 in
  Array.blit t.ev 0 bigger 0 (Array.length t.ev);
  t.ev <- bigger;
  bigger

(* The call/ret/branch events of [l] into [ev], which is [t.ev], from
   event [i], the names into [t.table]; returns the event count.  One
   match per event, storing in each arm, into an array held in an
   argument: this ran about twice as fast as matching for the op and
   again for the argument, or storing through [t.ev]. *)
let rec fill_events t ev i l =
  if (2 * i) + 2 > Array.length ev then fill_events t (grow_events t) i l
  else
    match l with
    | [] -> i
    | (e : Event.t) :: rest -> (
        match e.Event.kind with
        | Event.Call { callee } ->
            Array.unsafe_set ev (2 * i) 0;
            Array.unsafe_set ev ((2 * i) + 1) (callee_index t callee);
            fill_events t ev (i + 1) rest
        | Event.Ret ->
            Array.unsafe_set ev (2 * i) 1;
            Array.unsafe_set ev ((2 * i) + 1) 0;
            fill_events t ev (i + 1) rest
        | Event.Branch { taken; _ } ->
            Array.unsafe_set ev (2 * i) (if taken then 2 else 3);
            Array.unsafe_set ev ((2 * i) + 1) e.Event.pc;
            fill_events t ev (i + 1) rest
        | _ -> fill_events t ev i rest)

(* The event bits of [evs] into [t.body] from byte 0, the names into
   [t.table]; returns the event count and the body's length in bytes. *)
let encode_events t evs =
  Names.reset t.index;
  t.k <- 0;
  t.recent_n <- 0;
  let n = fill_events t t.ev 0 evs in
  let room = (event_room * n) + 8 in
  if Bytes.length t.body < room then
    t.body <- Bytes.create (max room (2 * Bytes.length t.body));
  (n, pack t.ev n t.body 0)

(* {3 The decoder}

   A decoded batch is flat: event [i]'s op at [ev.(2i)], its argument
   (a callee index or a branch pc) at [ev.(2i+1)]. *)

type batch = {
  mutable ev : int array;
  mutable n : int;
  mutable names : string array;
  mutable k : int;
}

let batch capacity =
  { ev = Array.make (2 * capacity) 0; n = 0; names = Array.make 64 ""; k = 0 }

let batch_capacity b = Array.length b.ev / 2
let varint_too_long = Malformed_payload "varint too long"
let bad_callee_index = Malformed_payload "bad callee index"

(* The one [Branch_events] decoder.  Counts are bounded by the bits
   left before anything count-sized is allocated: an event takes at
   least 2 bits, a name at least an 8-bit length.  [b.k] counts the
   names held and the slots past it are "", so clearing the previous
   names keeps a batch to the names of the last payload it read. *)
let decode_batch b buf ~pos ~len =
  Array.fill b.names 0 b.k "";
  b.n <- 0;
  b.k <- 0;
  let r = Bs.Reader.of_span buf ~pos ~len in
  let n = pull_varint r in
  if n < 0 || n > Bs.Reader.bits_left r / 2 then fail "list length out of range";
  let k = pull_varint r in
  if k < 0 || k > Bs.Reader.bits_left r / 8 then fail "list length out of range";
  if k > Array.length b.names then b.names <- Array.make k "";
  for i = 0 to k - 1 do
    let len = pull_varint r in
    if len < 0 then fail "string length out of range";
    b.names.(i) <- Bs.Reader.pull_string r len;
    b.k <- i + 1
  done;
  if 2 * n > Array.length b.ev then b.ev <- Array.make (2 * n) 0;
  (* every header field is 8 bits wide: the reader is byte-aligned *)
  let limit = pos + len in
  match unpack b.ev buf (limit - (Bs.Reader.bits_left r / 8)) limit n k with
  | 0 -> b.n <- n
  | 1 -> raise Bs.Past_end
  | 2 -> raise varint_too_long
  | _ -> raise bad_callee_index

let branch_events_tag = 4

(* {3 Staging}

   A staging owns one batch that every span it stages is decoded into,
   so a decode allocates none.  It starts with room for [default_batch]
   events; a payload that needs more grows it, and the batch that grew
   past [staging_keep] events or names is handed back but no longer
   kept: the staging starts over from a fresh default batch.  Each
   server reactor owns one; {!iter_branch_events} stages into one per
   domain. *)

type staging = { mutable staged : batch }

let staging () = { staged = batch default_batch }
let staged_capacity s = batch_capacity s.staged

let trim_staging s =
  if staged_capacity s > staging_keep || Array.length s.staged.names > staging_keep
  then s.staged <- batch default_batch

let stage s buf ~pos ~len =
  let b = s.staged in
  match decode_batch b buf ~pos ~len with
  | () ->
      trim_staging s;
      b
  | exception e ->
      trim_staging s;
      raise e

let staging_key = Domain.DLS.new_key staging
let staging_capacity () = staged_capacity (Domain.DLS.get staging_key)
let decode_staged buf ~pos ~len = stage (Domain.DLS.get staging_key) buf ~pos ~len

let iter_branch_events buf ~pos ~len ~on_call ~on_ret ~on_branch ~on_other:_ =
  let b = decode_staged buf ~pos ~len in
  for i = 0 to b.n - 1 do
    let arg = b.ev.((2 * i) + 1) in
    match b.ev.(2 * i) with
    | 0 -> on_call b.names.(arg)
    | 1 -> on_ret ()
    | op -> on_branch ~pc:arg ~taken:(op = 2)
  done;
  b.n

(* The list view: a fresh batch, events in the wire normal form. *)
let events_of_batch b =
  let rec go i acc =
    if i < 0 then acc
    else
      let arg = b.ev.((2 * i) + 1) in
      let pc, kind =
        match b.ev.(2 * i) with
        | 0 -> (0, Event.Call { callee = b.names.(arg) })
        | 1 -> (0, Event.Ret)
        | op -> (arg, Event.Branch { taken = op = 2; target_pc = 0 })
      in
      go (i - 1) ({ Event.fname = ""; iid = 0; pc; kind } :: acc)
  in
  go (b.n - 1) []

let tag_of_frame = function
  | Load_key _ -> 1
  | Load_image _ -> 2
  | Begin_trace -> 3
  | Branch_events _ -> 4
  | End_trace -> 5
  | Fetch_artifact _ -> 6
  | Push_artifact _ -> 7
  | Loaded _ -> 16
  | Trace_started -> 17
  | Verdicts _ -> 18
  | Trace_summary _ -> 19
  | Artifact_data _ -> 20
  | Artifact_pushed _ -> 21
  | Error _ -> 31

let encode_payload w = function
  | Load_key key -> push_string w key
  | Load_image { name; image } ->
      push_string w name;
      push_string w image
  | Begin_trace -> ()
  | Branch_events _ -> invalid_arg "Protocol.encode_payload: Branch_events"
  | End_trace -> ()
  | Fetch_artifact key -> push_string w key
  | Push_artifact { key; image } ->
      push_string w key;
      push_string w image
  | Loaded { name; cached } ->
      push_string w name;
      push_bool w cached
  | Trace_started -> ()
  | Verdicts vs -> push_list w push_verdict vs
  | Trace_summary { total_events; total_branches; total_alarms } ->
      push_int w total_events;
      push_int w total_branches;
      push_int w total_alarms
  | Artifact_data { key; image } ->
      push_string w key;
      push_string w image
  | Artifact_pushed { key; stored } ->
      push_string w key;
      push_bool w stored
  | Error { code; detail } ->
      Bs.Writer.push w ~width:8 (error_code_to_int code);
      push_string w detail

let decode_payload ~limit tag buf ~pos ~len =
  let r = Bs.Reader.of_span buf ~pos ~len in
  match tag with
  | 1 -> Some (Load_key (pull_string ~limit r))
  | 2 ->
      let name = pull_string ~limit r in
      let image = pull_string ~limit r in
      Some (Load_image { name; image })
  | 3 -> Some Begin_trace
  | 4 ->
      let b = batch 0 in
      decode_batch b buf ~pos ~len;
      Some (Branch_events (events_of_batch b))
  | 5 -> Some End_trace
  | 6 -> Some (Fetch_artifact (pull_string ~limit r))
  | 7 ->
      let key = pull_string ~limit r in
      let image = pull_string ~limit r in
      Some (Push_artifact { key; image })
  | 16 ->
      let name = pull_string ~limit r in
      let cached = pull_bool r in
      Some (Loaded { name; cached })
  | 17 -> Some Trace_started
  | 18 -> Some (Verdicts (pull_list ~limit r (pull_verdict ~limit)))
  | 19 ->
      let total_events = pull_int r in
      let total_branches = pull_int r in
      let total_alarms = pull_int r in
      Some (Trace_summary { total_events; total_branches; total_alarms })
  | 20 ->
      let key = pull_string ~limit r in
      let image = pull_string ~limit r in
      Some (Artifact_data { key; image })
  | 21 ->
      let key = pull_string ~limit r in
      let stored = pull_bool r in
      Some (Artifact_pushed { key; stored })
  | 31 -> (
      match error_code_of_int (Bs.Reader.pull r ~width:8) with
      | Some code -> Some (Error { code; detail = pull_string ~limit r })
      | None -> fail "bad error code")
  | _ -> None

(* {2 Frame codec} *)

(* A frame is built in one buffer: [fill] writes the [plen]-byte
   payload at [header_bytes], then the CRC seals header and payload. *)
let frame ~tag ~plen fill =
  let b = Bytes.create (header_bytes + plen + trailer_bytes) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set b 4 (Char.chr version);
  Bytes.set b 5 (Char.chr tag);
  Bytes.set_int32_le b 6 (Int32.of_int plen);
  fill b;
  Bytes.set_int32_le b (header_bytes + plen)
    (Ipds_artifact.Crc32.bytes b ~pos:0 ~len:(header_bytes + plen));
  b

let encode_branch_events evs =
  let t = Domain.DLS.get encoder_key in
  let n, body_len = encode_events t evs in
  let k = t.k in
  let names_len = ref 0 in
  for i = 0 to k - 1 do
    let l = String.length t.table.(i) in
    names_len := !names_len + varint_bytes l + l
  done;
  let plen = varint_bytes n + varint_bytes k + !names_len + body_len in
  let b =
    frame ~tag:branch_events_tag ~plen (fun b ->
        let p = put_varint b header_bytes n in
        let p = ref (put_varint b p k) in
        for i = 0 to k - 1 do
          let s = t.table.(i) in
          let l = String.length s in
          p := put_varint b !p l;
          Bytes.blit_string s 0 b !p l;
          p := !p + l
        done;
        Bytes.blit t.body 0 b !p body_len)
  in
  if
    Array.length t.ev > 2 * staging_keep
    || Bytes.length t.body > (event_room * staging_keep) + 8
    || Array.length t.table > staging_keep
  then Domain.DLS.set encoder_key (fresh_encoder ());
  b

let encode_frame = function
  | Branch_events evs -> encode_branch_events evs
  | f ->
      let w = Bs.Writer.create () in
      encode_payload w f;
      frame ~tag:(tag_of_frame f)
        ~plen:((Bs.Writer.bits_written w + 7) / 8)
        (fun b -> Bs.Writer.blit_contents w b header_bytes)

type decoded =
  | Frame of frame * int  (** decoded frame, offset just past it *)
  | Need_more of int  (** at least this many bytes from [pos] required *)
  | Fail of err

(* Header + CRC validation without touching the payload, so an
   event-loop server can route a validated span to the streaming batch
   decoder (below) without materializing the frame. *)
type scanned =
  | Scan_frame of {
      tag : int;
      payload_pos : int;  (** absolute offset of the payload in [buf] *)
      payload_len : int;
      next : int;  (** absolute offset just past the frame *)
    }
  | Scan_need of int
  | Scan_fail of err

let magic_at buf pos =
  Bytes.get buf pos = 'I'
  && Bytes.get buf (pos + 1) = 'P'
  && Bytes.get buf (pos + 2) = 'S'
  && Bytes.get buf (pos + 3) = 'V'

let scan_at ?(max_frame = default_max_frame) buf ~pos ~len =
  if len < header_bytes then Scan_need header_bytes
  else if not (magic_at buf pos) then
    Scan_fail { code = Bad_magic; detail = "bad frame magic" }
  else if Char.code (Bytes.get buf (pos + 4)) <> version then
    Scan_fail
      {
        code = Bad_version;
        detail =
          Printf.sprintf "protocol version %d, expected %d"
            (Char.code (Bytes.get buf (pos + 4)))
            version;
      }
  else
    let tag = Char.code (Bytes.get buf (pos + 5)) in
    (* unsigned: a length >= 2^31 must not read as negative *)
    let plen = Int32.to_int (Bytes.get_int32_le buf (pos + 6)) land 0xFFFF_FFFF in
    if plen > max_frame then
      Scan_fail
        {
          code = Oversized;
          detail = Printf.sprintf "payload of %d bytes exceeds limit %d" plen max_frame;
        }
    else if len < header_bytes + plen + trailer_bytes then
      Scan_need (header_bytes + plen + trailer_bytes)
    else
      let crc = Ipds_artifact.Crc32.bytes buf ~pos ~len:(header_bytes + plen) in
      if not (Int32.equal crc (Bytes.get_int32_le buf (pos + header_bytes + plen)))
      then
        Scan_fail { code = Bad_crc; detail = "frame CRC mismatch" }
      else
        Scan_frame
          {
            tag;
            payload_pos = pos + header_bytes;
            payload_len = plen;
            next = pos + header_bytes + plen + trailer_bytes;
          }

(* Decode a CRC-validated payload span into a frame value. *)
let decode_span ?(max_frame = default_max_frame) tag buf ~pos ~len =
  match decode_payload ~limit:max_frame tag buf ~pos ~len with
  | Some f -> Ok f
  | None ->
      Error
        { code = Unknown_frame; detail = Printf.sprintf "unknown frame tag %d" tag }
  | exception Malformed_payload m -> Error { code = Malformed; detail = m }
  | exception Bs.Past_end ->
      Error { code = Malformed; detail = "payload ends prematurely" }

let decode_at ?max_frame buf ~pos ~len =
  match scan_at ?max_frame buf ~pos ~len with
  | Scan_need n -> Need_more n
  | Scan_fail e -> Fail e
  | Scan_frame { tag; payload_pos; payload_len; next } -> (
      match decode_span ?max_frame tag buf ~pos:payload_pos ~len:payload_len with
      | Ok f -> Frame (f, next)
      | Error e -> Fail e)

let decode_string ?max_frame s =
  let buf = Bytes.of_string s in
  let total = Bytes.length buf in
  let rec go pos acc =
    if pos = total then Ok (List.rev acc)
    else
      match decode_at ?max_frame buf ~pos ~len:(total - pos) with
      | Frame (f, next) -> go next (f :: acc)
      | Need_more _ ->
          Error { code = Truncated; detail = "stream ends mid-frame" }
      | Fail e -> Error e
  in
  go 0 []

(* {2 Socket transport} *)

(* A peer that disconnects before reading our reply turns the next
   [Unix.write] into a SIGPIPE, whose default disposition kills the
   whole process — session-level [Unix_error EPIPE] handling only works
   once the signal is ignored.  Both [Server.start] and [Client.connect]
   call this; [Invalid_argument] covers platforms without SIGPIPE. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let rec write_all fd b pos len =
  if len > 0 then
    match Unix.write fd b pos len with
    | n -> write_all fd b (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b pos len

let output_frame fd f =
  let b = encode_frame f in
  write_all fd b 0 (Bytes.length b)

type reader = {
  fd : Unix.file_descr;
  max_frame : int;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable len : int;
}

(* Replies are small, so the buffer starts small enough to live in the
   minor heap (below its 256-word limit) and grows only for a frame
   that does not fit. *)
let reader ?(max_frame = default_max_frame) fd =
  { fd; max_frame; buf = Bytes.create 1024; start = 0; len = 0 }

type input = In_frame of frame | In_eof | In_error of err

let rec input_frame r =
  match decode_at ~max_frame:r.max_frame r.buf ~pos:r.start ~len:r.len with
  | Frame (f, next) ->
      r.len <- r.len - (next - r.start);
      r.start <- next;
      In_frame f
  | Fail e -> In_error e
  | Need_more need -> (
      (* Compact and grow so [need] bytes fit from [start]. *)
      if r.start > 0 && r.start + need > Bytes.length r.buf then begin
        Bytes.blit r.buf r.start r.buf 0 r.len;
        r.start <- 0
      end;
      if need > Bytes.length r.buf then begin
        let bigger = Bytes.create (max need (2 * Bytes.length r.buf)) in
        Bytes.blit r.buf r.start bigger 0 r.len;
        r.start <- 0;
        r.buf <- bigger
      end;
      let off = r.start + r.len in
      match Unix.read r.fd r.buf off (Bytes.length r.buf - off) with
      | 0 ->
          if r.len = 0 then In_eof
          else In_error { code = Truncated; detail = "connection closed mid-frame" }
      | n ->
          r.len <- r.len + n;
          input_frame r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> input_frame r
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          In_error { code = Timeout; detail = "session timed out waiting for a frame" }
      | exception Unix.Unix_error (e, _, _) ->
          In_error { code = Truncated; detail = Unix.error_message e })
