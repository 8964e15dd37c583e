(* The wire v2 [Branch_events] codec as it was before protocol.ml fused
   it into one encoder and one flat-array decoder: [push_branch_events]
   (two walks over the list, a Hashtbl lookup per call) and
   [walk_branch_events] (one closure call per event), kept verbatim as
   the reference the library is checked against in test_codec.  Not
   used by any library. *)

module Bs = Ipds_core.Bitstream
module Event = Ipds_machine.Event

exception Malformed_payload of string

let fail m = raise (Malformed_payload m)

(* {2 [Branch_events], wire v2}

   Only the checker's call/ret/branch stream; the layout and the wire
   normal form of a decoded event are in protocol.mli.  The varint
   helpers recurse at top level, not as closures over [w]/[r]: they run
   per event and must not allocate. *)
let rec push_varint w v =
  if v lsr 7 = 0 then Bs.Writer.push w ~width:8 v
  else begin
    Bs.Writer.push w ~width:8 (v land 0x7F lor 0x80);
    push_varint w (v lsr 7)
  end

let rec pull_varint_from r acc shift =
  let g = Bs.Reader.pull r ~width:8 in
  let acc = acc lor ((g land 0x7F) lsl shift) in
  if g land 0x80 = 0 then acc
  else if shift = 56 then fail "varint too long"
  else pull_varint_from r acc (shift + 7)

let pull_varint r = pull_varint_from r 0 0

(* Signed deltas as small unsigned varints: 0, -1, 1, -2, ... *)
let zigzag d = (d lsl 1) lxor (d asr 62)
let unzigzag z = (z lsr 1) lxor -(z land 1)

let push_branch_events w evs =
  let index = Hashtbl.create 16 and names = ref [] and n = ref 0 in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Call { callee } ->
          incr n;
          if not (Hashtbl.mem index callee) then begin
            Hashtbl.add index callee (Hashtbl.length index);
            names := callee :: !names
          end
      | Event.Ret | Event.Branch _ -> incr n
      | _ -> ())
    evs;
  push_varint w !n;
  push_varint w (Hashtbl.length index);
  List.iter
    (fun s ->
      push_varint w (String.length s);
      Bs.Writer.push_string w s)
    (List.rev !names);
  let prev = ref 0 in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Call { callee } ->
          Bs.Writer.push w ~width:2 0;
          push_varint w (Hashtbl.find index callee)
      | Event.Ret -> Bs.Writer.push w ~width:2 1
      | Event.Branch { taken; _ } ->
          Bs.Writer.push w ~width:2 (if taken then 2 else 3);
          push_varint w (zigzag (e.Event.pc - !prev));
          prev := e.Event.pc
      | _ -> ())
    evs

(* The one [Branch_events] decoder.  Counts are bounded by the bits
   left before anything count-sized is allocated: an event takes at
   least 2 bits, a name at least an 8-bit length. *)
let walk_branch_events r ~on_call ~on_ret ~on_branch =
  let n = pull_varint r in
  if n < 0 || n > Bs.Reader.bits_left r / 2 then fail "list length out of range";
  let k = pull_varint r in
  if k < 0 || k > Bs.Reader.bits_left r / 8 then fail "list length out of range";
  let names = Array.make k "" in
  for i = 0 to k - 1 do
    let len = pull_varint r in
    if len < 0 then fail "string length out of range";
    names.(i) <- Bs.Reader.pull_string r len
  done;
  let prev = ref 0 in
  for _ = 1 to n do
    match Bs.Reader.pull r ~width:2 with
    | 0 ->
        let i = pull_varint r in
        if i < 0 || i >= k then fail "bad callee index";
        on_call names.(i)
    | 1 -> on_ret ()
    | op ->
        prev := !prev + unzigzag (pull_varint r);
        on_branch ~pc:!prev ~taken:(op = 2)
  done;
  n

(* The payload bytes of a batch, as [Protocol.encode_frame] wrote
   them between header and CRC. *)
let payload evs =
  let w = Bs.Writer.create () in
  push_branch_events w evs;
  Bs.Writer.contents w

(* A payload span decoded to events in the wire normal form, or the
   detail string of its [malformed] refusal. *)
let decode buf ~pos ~len =
  let evs = ref [] in
  let ev pc kind = evs := { Event.fname = ""; iid = 0; pc; kind } :: !evs in
  match
    walk_branch_events (Bs.Reader.of_span buf ~pos ~len)
      ~on_call:(fun callee -> ev 0 (Event.Call { callee }))
      ~on_ret:(fun () -> ev 0 Event.Ret)
      ~on_branch:(fun ~pc ~taken -> ev pc (Event.Branch { taken; target_pc = 0 }))
  with
  | (_ : int) -> Ok (List.rev !evs)
  | exception Malformed_payload m -> Error m
  | exception Bs.Past_end -> Error "payload ends prematurely"
