(* The verdict-server wire format: length-prefixed binary frames with a
   versioned magic and a CRC-32 trailer, payloads bit-packed with
   {!Ipds_core.Bitstream}.

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
let version = 1
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

let error_code_to_string = function
  | Bad_magic -> "bad-magic"
  | Bad_version -> "bad-version"
  | Bad_crc -> "bad-crc"
  | Oversized -> "oversized"
  | Truncated -> "truncated"
  | Unknown_frame -> "unknown-frame"
  | Malformed -> "malformed"
  | Bad_state -> "bad-state"
  | Unknown_artifact -> "unknown-artifact"
  | Corrupt_artifact -> "corrupt-artifact"
  | Timeout -> "timeout"
  | Server_error -> "server-error"
  | Overloaded -> "overloaded"
  | Unavailable -> "unavailable"

let error_code_to_int = function
  | Bad_magic -> 0
  | Bad_version -> 1
  | Bad_crc -> 2
  | Oversized -> 3
  | Truncated -> 4
  | Unknown_frame -> 5
  | Malformed -> 6
  | Bad_state -> 7
  | Unknown_artifact -> 8
  | Corrupt_artifact -> 9
  | Timeout -> 10
  | Server_error -> 11
  | Overloaded -> 12
  | Unavailable -> 13

let error_code_of_int = function
  | 0 -> Some Bad_magic
  | 1 -> Some Bad_version
  | 2 -> Some Bad_crc
  | 3 -> Some Oversized
  | 4 -> Some Truncated
  | 5 -> Some Unknown_frame
  | 6 -> Some Malformed
  | 7 -> Some Bad_state
  | 8 -> Some Unknown_artifact
  | 9 -> Some Corrupt_artifact
  | 10 -> Some Timeout
  | 11 -> Some Server_error
  | 12 -> Some Overloaded
  | 13 -> Some Unavailable
  | _ -> None

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

   Payloads are written with {!Bs.Writer} (LSB-first bit packing) and
   read back with [Fast], a byte-refilled accumulator over the payload
   span: one shift-mask per field instead of a loop per bit, and no copy
   of the span.  Every field is at most 32 bits wide. *)

exception Malformed_payload of string

let fail m = raise (Malformed_payload m)

module Fast = struct
  exception Short

  type reader = {
    buf : Bytes.t;
    limit : int;  (** exclusive byte bound *)
    mutable pos : int;  (** next byte to fold into [acc] *)
    mutable acc : int;
    mutable bits : int;  (** valid low bits of [acc] *)
  }

  let make buf ~pos ~len = { buf; limit = pos + len; pos; acc = 0; bits = 0 }

  (* [width] <= 32, so [bits] stays < 40 and [acc] never nears bit 62. *)
  let pull r width =
    while r.bits < width do
      if r.pos >= r.limit then raise Short;
      r.acc <- r.acc lor (Char.code (Bytes.unsafe_get r.buf r.pos) lsl r.bits);
      r.bits <- r.bits + 8;
      r.pos <- r.pos + 1
    done;
    let v = r.acc land ((1 lsl width) - 1) in
    r.acc <- r.acc lsr width;
    r.bits <- r.bits - width;
    v

  (* Full-width int: 31 low bits + 32 high bits reconstructs every 63-bit
     OCaml int exactly, negatives included (bit 62 is the sign bit). *)
  let pull_int r =
    let lo = pull r 31 in
    let hi = pull r 32 in
    (hi lsl 31) lor lo

  let skip_chars r n =
    for _ = 1 to n do
      ignore (pull r 8)
    done

  let pull_chars r n =
    let b = Bytes.create n in
    for i = 0 to n - 1 do
      Bytes.unsafe_set b i (Char.unsafe_chr (pull r 8))
    done;
    Bytes.unsafe_to_string b
end

let push_int w v =
  Bs.Writer.push w ~width:31 (v land 0x7FFF_FFFF);
  Bs.Writer.push w ~width:32 ((v lsr 31) land 0xFFFF_FFFF)

let pull_int = Fast.pull_int
let push_bool w b = Bs.Writer.push w ~width:1 (if b then 1 else 0)
let pull_bool r = Fast.pull r 1 = 1

let push_string w s =
  let n = String.length s in
  push_int w n;
  String.iter (fun c -> Bs.Writer.push w ~width:8 (Char.code c)) s

(* String/list lengths are bounded by the decoder's effective
   [max_frame], not the compile-time default — a server started with a
   larger [--max-frame] must accept payloads that fill it.  The bound
   only rejects absurd lengths before allocation; genuine overruns of
   the actual payload still surface as [Fast.Short]. *)
let pull_length ~limit r =
  let n = pull_int r in
  if n < 0 || n > limit then fail "string length out of range";
  n

let pull_string ~limit r = Fast.pull_chars r (pull_length ~limit r)

let push_status w (s : Ipds_core.Status.t) =
  Bs.Writer.push w ~width:2
    (match s with
    | Ipds_core.Status.Taken -> 0
    | Ipds_core.Status.Not_taken -> 1
    | Ipds_core.Status.Unknown -> 2)

let pull_status r : Ipds_core.Status.t =
  match Fast.pull r 2 with
  | 0 -> Ipds_core.Status.Taken
  | 1 -> Ipds_core.Status.Not_taken
  | 2 -> Ipds_core.Status.Unknown
  | _ -> fail "bad status"

let push_event w (e : Event.t) =
  push_string w e.Event.fname;
  push_int w e.Event.iid;
  push_int w e.Event.pc;
  let tag n = Bs.Writer.push w ~width:4 n in
  match e.Event.kind with
  | Event.Alu -> tag 0
  | Event.Load { addr } ->
      tag 1;
      push_int w addr
  | Event.Store { addr } ->
      tag 2;
      push_int w addr
  | Event.Branch { taken; target_pc } ->
      tag 3;
      push_bool w taken;
      push_int w target_pc
  | Event.Jump { target_pc } ->
      tag 4;
      push_int w target_pc
  | Event.Call { callee } ->
      tag 5;
      push_string w callee
  | Event.Ret -> tag 6
  | Event.Input_read -> tag 7
  | Event.Output_write v ->
      tag 8;
      push_int w v
  | Event.Fault_inject { skipped } ->
      tag 9;
      push_bool w skipped

let pull_event ~limit r : Event.t =
  let fname = pull_string ~limit r in
  let iid = pull_int r in
  let pc = pull_int r in
  let kind =
    match Fast.pull r 4 with
    | 0 -> Event.Alu
    | 1 -> Event.Load { addr = pull_int r }
    | 2 -> Event.Store { addr = pull_int r }
    | 3 ->
        let taken = pull_bool r in
        let target_pc = pull_int r in
        Event.Branch { taken; target_pc }
    | 4 -> Event.Jump { target_pc = pull_int r }
    | 5 -> Event.Call { callee = pull_string ~limit r }
    | 6 -> Event.Ret
    | 7 -> Event.Input_read
    | 8 -> Event.Output_write (pull_int r)
    | 9 -> Event.Fault_inject { skipped = pull_bool r }
    | n -> fail (Printf.sprintf "bad event kind %d" n)
  in
  { Event.fname; iid; pc; kind }

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
  | Branch_events evs -> push_list w push_event evs
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

let decode_payload ~limit tag r =
  match tag with
  | 1 -> Some (Load_key (pull_string ~limit r))
  | 2 ->
      let name = pull_string ~limit r in
      let image = pull_string ~limit r in
      Some (Load_image { name; image })
  | 3 -> Some Begin_trace
  | 4 -> Some (Branch_events (pull_list ~limit r (pull_event ~limit)))
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
      match error_code_of_int (Fast.pull r 8) with
      | Some code -> Some (Error { code; detail = pull_string ~limit r })
      | None -> fail "bad error code")
  | _ -> None

(* {2 Frame codec} *)

let set_u32_le b pos v =
  for i = 0 to 3 do
    Bytes.set b (pos + i) (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let get_u32_le b pos =
  let byte i = Char.code (Bytes.get b (pos + i)) in
  byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24)

let encode_frame f =
  let w = Bs.Writer.create () in
  encode_payload w f;
  Bs.Writer.align_byte w;
  let payload = Bs.Writer.contents w in
  let plen = Bytes.length payload in
  let b = Bytes.create (header_bytes + plen + trailer_bytes) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set b 4 (Char.chr version);
  Bytes.set b 5 (Char.chr (tag_of_frame f));
  set_u32_le b 6 plen;
  Bytes.blit payload 0 b header_bytes plen;
  let crc =
    Int32.to_int (Ipds_artifact.Crc32.bytes b ~pos:0 ~len:(header_bytes + plen))
    land 0xFFFF_FFFF
  in
  set_u32_le b (header_bytes + plen) crc;
  b

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
    let plen = get_u32_le buf (pos + 6) in
    if plen > max_frame then
      Scan_fail
        {
          code = Oversized;
          detail = Printf.sprintf "payload of %d bytes exceeds limit %d" plen max_frame;
        }
    else if len < header_bytes + plen + trailer_bytes then
      Scan_need (header_bytes + plen + trailer_bytes)
    else
      let stored = get_u32_le buf (pos + header_bytes + plen) in
      let crc =
        Int32.to_int
          (Ipds_artifact.Crc32.bytes buf ~pos ~len:(header_bytes + plen))
        land 0xFFFF_FFFF
      in
      if stored <> crc then
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
  match decode_payload ~limit:max_frame tag (Fast.make buf ~pos ~len) with
  | Some f -> Ok f
  | None ->
      Error
        { code = Unknown_frame; detail = Printf.sprintf "unknown frame tag %d" tag }
  | exception Malformed_payload m -> Error { code = Malformed; detail = m }
  | exception Fast.Short ->
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

(* {2 Streaming batch decode}

   [Branch_events] is the only frame on the serving hot path.
   [iter_branch_events] walks the same layout as [pull_event] with the
   same reader, but skips [fname]/[iid] wholesale and hands
   call/ret/branch straight to callbacks — no list, no event records,
   no strings except callee names.  The server feeds the checker
   through this; acceptance and rejection (bounds checks, error
   details) match [decode_payload], which test_serve asserts
   differentially against random frames. *)

let branch_events_tag = 4

(* Walk one [Branch_events] payload span, dispatching checker-relevant
   events to the callbacks in order; returns the event count (all
   kinds).  Raises [Fast.Short] on a payload that ends prematurely and
   [Malformed_payload] exactly where [decode_payload] would. *)
let iter_branch_events ?(limit = default_max_frame) buf ~pos ~len ~on_call
    ~on_ret ~on_branch ~on_other =
  let r = Fast.make buf ~pos ~len in
  let n = pull_count ~limit r in
  for _ = 1 to n do
    Fast.skip_chars r (pull_length ~limit r);
    ignore (Fast.pull_int r) (* iid *);
    let pc = Fast.pull_int r in
    match Fast.pull r 4 with
    | 0 -> on_other () (* Alu *)
    | 1 | 2 ->
        ignore (Fast.pull_int r) (* Load/Store addr *);
        on_other ()
    | 3 ->
        let taken = Fast.pull r 1 = 1 in
        ignore (Fast.pull_int r) (* target_pc, unused by the checker *);
        on_branch ~pc ~taken
    | 4 ->
        ignore (Fast.pull_int r) (* Jump target *);
        on_other ()
    | 5 -> on_call (pull_string ~limit r)
    | 6 -> on_ret ()
    | 7 -> on_other () (* Input_read *)
    | 8 ->
        ignore (Fast.pull_int r) (* Output_write value *);
        on_other ()
    | 9 ->
        ignore (Fast.pull r 1) (* Fault_inject skipped *);
        on_other ()
    | k -> fail (Printf.sprintf "bad event kind %d" k)
  done;
  n

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

let reader ?(max_frame = default_max_frame) fd =
  { fd; max_frame; buf = Bytes.create 65536; start = 0; len = 0 }

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
