(* Client side of the verdict protocol: lockstep request/reply RPCs plus
   a streaming [trace] helper whose [sink] plugs straight into
   [Interp.config.sink], so one interpreter run can be checked locally
   and remotely in the same process. *)

module Event = Ipds_machine.Event

type address = Ipds_fleet.Topology.address

type t = {
  fd : Unix.file_descr;
  reader : Protocol.reader;
  mutable closed : bool;
}

(* Resolution failures must stay inside [connect]'s documented
   [Unix_error] contract — gethostbyname's bare [Not_found] would skip
   the caller's friendly connect-error path. *)
let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      let addrs =
        try
          Unix.getaddrinfo host ""
            [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
        with Unix.Unix_error _ | Not_found -> []
      in
      let inet = function
        | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } -> Some a
        | _ -> None
      in
      match List.find_map inet addrs with
      | Some a -> a
      | None -> raise (Unix.Unix_error (Unix.EHOSTUNREACH, "resolve", host)))

let connect ?(max_frame = Protocol.default_max_frame) (addr : address) =
  Protocol.ignore_sigpipe ();
  let sockaddr =
    match addr with
    | `Unix path -> Unix.ADDR_UNIX path
    | `Tcp (host, port) -> Unix.ADDR_INET (resolve host, port)
  in
  let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
  (* a refused connect must not leak the socket: failover and the fleet
     launcher's readiness probe retry connects in a loop *)
  (try Unix.connect fd sockaddr
   with e ->
     Unix.close fd;
     raise e);
  { fd; reader = Protocol.reader ~max_frame fd; closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let rpc t frame expect =
  match Protocol.output_frame t.fd frame with
  | () -> (
      match Protocol.input_frame t.reader with
      | Protocol.In_frame (Protocol.Error e) -> Error e
      | Protocol.In_frame f -> (
          match expect f with
          | Some v -> Ok v
          | None ->
              Error
                {
                  Protocol.code = Protocol.Malformed;
                  detail = "unexpected reply frame";
                })
      | Protocol.In_eof ->
          Error
            {
              Protocol.code = Protocol.Truncated;
              detail = "server closed the connection";
            }
      | Protocol.In_error e -> Error e)
  | exception Unix.Unix_error (e, _, _) ->
      Error
        { Protocol.code = Protocol.Server_error; detail = Unix.error_message e }

let load_key t key =
  rpc t (Protocol.Load_key key) (function
    | Protocol.Loaded { cached; _ } -> Some cached
    | _ -> None)

(* [output_frame] encodes and writes the frame before [rpc] returns and
   keeps no reference to it, so the caller's bytes are sent uncopied *)
let load_image t ~name image =
  rpc t
    (Protocol.Load_image { name; image = Bytes.unsafe_to_string image })
    (function Protocol.Loaded { cached; _ } -> Some cached | _ -> None)

let begin_trace t =
  rpc t Protocol.Begin_trace (function
    | Protocol.Trace_started -> Some ()
    | _ -> None)

let send_events t evs =
  rpc t (Protocol.Branch_events evs) (function
    | Protocol.Verdicts vs -> Some vs
    | _ -> None)

let end_trace t =
  rpc t Protocol.End_trace (function
    | Protocol.Trace_summary s -> Some s
    | _ -> None)

let fetch_artifact t key =
  rpc t (Protocol.Fetch_artifact key) (function
    | Protocol.Artifact_data { key = k; image } when String.equal k key ->
        Some (Bytes.of_string image)
    | _ -> None)

let push_artifact t ~key image =
  rpc t
    (Protocol.Push_artifact { key; image = Bytes.to_string image })
    (function
      | Protocol.Artifact_pushed { key = k; stored } when String.equal k key ->
          Some stored
      | _ -> None)

type trace = {
  sink : Event.t -> unit;
  finish :
    unit ->
    (Ipds_core.Checker.alarm list * Protocol.summary, Protocol.err) result;
}

(* Only checker-relevant events go on the wire; the server replays the
   batch and replies with the alarms it raised, one Verdicts frame per
   batch.  A transport or protocol error mid-trace latches: the sink
   goes quiet and [finish] reports the first error. *)
let default_batch = Protocol.default_batch

let trace ?(batch = default_batch) t =
  if batch < 1 then
    invalid_arg (Printf.sprintf "Client.trace: batch must be >= 1 (got %d)" batch);
  match begin_trace t with
  | Error e -> Error e
  | Ok () ->
      let buf = ref [] in
      let n = ref 0 in
      let verdicts = ref [] in
      let failed = ref None in
      let flush () =
        if !n > 0 && Option.is_none !failed then begin
          (match send_events t (List.rev !buf) with
          | Ok vs -> verdicts := List.rev_append vs !verdicts
          | Error e -> failed := Some e);
          buf := [];
          n := 0
        end
      in
      let sink (e : Event.t) =
        match e.Event.kind with
        | Event.Call _ | Event.Ret | Event.Branch _ ->
            if Option.is_none !failed then begin
              buf := e :: !buf;
              incr n;
              if !n >= batch then flush ()
            end
        | _ -> ()
      in
      let finish () =
        flush ();
        match !failed with
        | Some e -> Error e
        | None -> (
            match end_trace t with
            | Ok s -> Ok (List.rev !verdicts, s)
            | Error e -> Error e)
      in
      Ok { sink; finish }
