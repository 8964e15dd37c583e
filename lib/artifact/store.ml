module Corr = Ipds_correlation

type t = { dir : string }

let create ~dir = { dir }
let dir t = t.dir

(* ---------- counters ----------

   Registry metrics: event counts are stable (the multiset of cache
   interactions is fixed by the memoised build set), wall-clock goes to
   unstable timers.  Reports and tests read them as [store.*]. *)

let m_hits = Ipds_obs.Registry.counter "store.hits"
let m_misses = Ipds_obs.Registry.counter "store.misses"
let m_corrupt = Ipds_obs.Registry.counter "store.corrupt"
let m_fn_hits = Ipds_obs.Registry.counter "store.fn_hits"
let m_fn_misses = Ipds_obs.Registry.counter "store.fn_misses"
let m_fn_precision_misses = Ipds_obs.Registry.counter "store.fn_precision_misses"
let m_fn_corrupt = Ipds_obs.Registry.counter "store.fn_corrupt"
let m_collisions = Ipds_obs.Registry.counter "store.collisions"
let m_publish_failed = Ipds_obs.Registry.counter "store.publish_failed"
let m_bytes_read = Ipds_obs.Registry.counter "store.bytes_read"
let m_bytes_written = Ipds_obs.Registry.counter "store.bytes_written"
let t_load = Ipds_obs.Registry.timer "store.load.ns"
let t_publish = Ipds_obs.Registry.timer "store.publish.ns"

(* ---------- keys & paths ---------- *)

let key ~source ~promote ~options =
  Ipds_core.Sha256.name
    [
      "ipds-artifact";
      string_of_int Object_file.format_version;
      Printf.sprintf "promote=%b" promote;
      Corr.Analysis.options_fingerprint options;
      source;
    ]

(* Keys reach this layer over the wire (artifact fetch/push frames), so
   their shape is validated here at the path boundary instead of letting
   [String.sub]/[Filename] fail deep inside: 2..128 chars, filename-safe
   alphabet, no leading dot — which rules out traversal ("../x"),
   separators and control bytes while still admitting both SHA-256 hex
   keys and the human-readable keys tests publish under. *)
let valid_key k =
  let n = String.length k in
  n >= 2 && n <= 128
  && k.[0] <> '.'
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.')
       k

let path_of_key t key =
  if not (valid_key key) then
    invalid_arg (Printf.sprintf "Store.path_of_key: malformed key %S" key);
  Filename.concat t.dir (Filename.concat (String.sub key 0 2) (key ^ ".ipds"))

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()  (* lost a race: fine *)
  end

(* ---------- load / publish ---------- *)

(* A failed read is only a plain miss when the entry does not exist;
   EACCES/EIO/EISDIR on an existing path is a damaged cache that would
   otherwise silently recompile forever. *)
let read_fault path msg =
  match Unix.access path [ Unix.F_OK ] with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> None
  | exception Unix.Unix_error (e, _, _) -> Some (Unix.error_message e)
  | () -> Some msg

let emit_corrupt ~kind path reason =
  if Ipds_obs.Events.enabled () then
    Ipds_obs.Events.emit ~kind
      [
        ("path", Ipds_obs.Json.String path);
        ("reason", Ipds_obs.Json.String reason);
      ]

(* the common load shape: None = plain miss, Some (`Hit v) /
   Some (`Corrupt reason) from the decoder *)
let load_entry path ~decode ~m_hit ~m_miss ~m_bad ~corrupt_kind =
  match Object_file.read_file path with
  | exception Sys_error msg -> (
      match read_fault path msg with
      | None ->
          Ipds_obs.Registry.incr m_miss;
          `Miss
      | Some reason ->
          Ipds_obs.Registry.incr m_miss;
          Ipds_obs.Registry.incr m_bad;
          emit_corrupt ~kind:corrupt_kind path reason;
          `Corrupt reason)
  | bytes -> (
      match decode bytes with
      | v ->
          Ipds_obs.Registry.incr m_hit;
          Ipds_obs.Registry.add m_bytes_read (Bytes.length bytes);
          `Hit v
      | exception Artifact.Corrupt reason ->
          Ipds_obs.Registry.incr m_miss;
          Ipds_obs.Registry.incr m_bad;
          emit_corrupt ~kind:corrupt_kind path reason;
          `Corrupt reason)

let load_decoded t key decode =
  if not (valid_key key) then begin
    Ipds_obs.Registry.incr m_misses;
    None
  end
  else
    let path = path_of_key t key in
    Ipds_obs.Registry.time t_load (fun () ->
        match
          load_entry path ~decode ~m_hit:m_hits ~m_miss:m_misses
            ~m_bad:m_corrupt ~corrupt_kind:"store.corrupt"
        with
        | `Hit v -> Some v
        | `Miss | `Corrupt _ -> None)

let load_system t key = load_decoded t key Artifact.of_bytes
let load_images t key = load_decoded t key Artifact.images_of_bytes

let fetch_image t key =
  if not (valid_key key) then `Miss
  else
    let path = path_of_key t key in
    Ipds_obs.Registry.time t_load (fun () ->
        match
          load_entry path
            ~decode:(fun bytes ->
              ignore (Artifact.of_bytes bytes : Ipds_core.System.t);
              bytes)
            ~m_hit:m_hits ~m_miss:m_misses ~m_bad:m_corrupt
            ~corrupt_kind:"store.corrupt"
        with
        | `Hit bytes -> `Image bytes
        | `Miss -> `Miss
        | `Corrupt reason -> `Corrupt reason)

(* The collision-detection table: the entry already stored at the
   hashed path is the table row for this key.  On a hash hit the bytes
   are compared before anything is trusted or replaced — identical
   bytes are the expected dedup case, a valid-but-different entry is a
   detected collision (counted and kept: first writer wins, loudly,
   never silent reuse), and an undecodable entry is damage to repair. *)
let publish_image_at path bytes =
  let previous =
    match Object_file.read_file path with
    | existing ->
        if Bytes.equal existing bytes then `Duplicate
        else if
          match Object_file.of_bytes existing with
          | (_ : (string * Bytes.t) list) -> true
          | exception Object_file.Corrupt _ -> false
        then `Collision
        else `Damaged
    | exception Sys_error _ -> `Absent
  in
  match previous with
  | `Duplicate -> `Duplicate
  | `Collision ->
      Ipds_obs.Registry.incr m_collisions;
      if Ipds_obs.Events.enabled () then
        Ipds_obs.Events.emit ~kind:"store.collision"
          [ ("path", Ipds_obs.Json.String path) ];
      `Collision
  | `Absent | `Damaged -> (
      match
        mkdirs (Filename.dirname path);
        Object_file.write_file_atomic path bytes;
        Bytes.length bytes
      with
      | written ->
          Ipds_obs.Registry.add m_bytes_written written;
          if Ipds_obs.Events.enabled () then
            Ipds_obs.Events.emit ~kind:"store.publish"
              [
                ("path", Ipds_obs.Json.String path);
                ("bytes", Ipds_obs.Json.Int written);
              ];
          `Stored
      | exception Sys_error msg ->
          Ipds_obs.Registry.incr m_publish_failed;
          if Ipds_obs.Events.enabled () then
            Ipds_obs.Events.emit ~kind:"store.publish_failed"
              [
                ("path", Ipds_obs.Json.String path);
                ("reason", Ipds_obs.Json.String msg);
              ];
          `Failed msg)

let publish_image t key bytes =
  if not (valid_key key) then `Failed "malformed key"
  else
    Ipds_obs.Registry.time t_publish (fun () ->
        publish_image_at (path_of_key t key) bytes)

let publish_system t key sys =
  ignore (publish_image t key (Artifact.to_bytes sys))

(* ---------- function tier ----------

   Single-function blobs under <dir>/fn/, addressed by the function's
   content digest (the [digest] field of its [System.func_info]) plus
   the artifact format version.  [System.build] consults this tier through
   {!func_cache} before running the analyze/tables passes, so after a
   one-function edit only that function is re-analyzed. *)

let fn_path t digest =
  let key =
    Ipds_core.Sha256.name
      [ "ipds-fn"; string_of_int Object_file.format_version; digest ]
  in
  Filename.concat t.dir
    (Filename.concat "fn"
       (Filename.concat (String.sub key 0 2) (key ^ ".ipds")))

let load_func t ~digest ~layout f =
  let path = fn_path t digest in
  Ipds_obs.Registry.time t_load (fun () ->
      match
        load_entry path
          ~decode:(Artifact.func_of_image ~digest ~layout f)
          ~m_hit:m_fn_hits ~m_miss:m_fn_misses ~m_bad:m_fn_corrupt
          ~corrupt_kind:"store.fn_corrupt"
      with
      | `Hit info -> Some info
      | `Miss | `Corrupt _ -> None)

let publish_func t ~digest info =
  let path = fn_path t digest in
  Ipds_obs.Registry.time t_publish (fun () ->
      ignore (publish_image_at path (Artifact.func_image info)))

let func_cache ?(precision = false) t =
  {
    Ipds_core.System.lookup =
      (fun ~digest ~layout f ->
        match load_func t ~digest ~layout f with
        | Some _ as hit -> hit
        | None ->
            (* misses attributable to a precision-bearing digest get their
               own counter, so a config flip shows up as clean fn misses *)
            if precision then
              Ipds_obs.Registry.incr m_fn_precision_misses;
            None);
    publish = (fun ~digest info -> publish_func t ~digest info);
  }

(* ---------- ambient store ---------- *)

let ambient_mutex = Mutex.create ()
let ambient_state : t option option ref = ref None  (* None = uninitialised *)

let set_ambient_dir d =
  Mutex.lock ambient_mutex;
  ambient_state := Some (Option.map (fun dir -> create ~dir) d);
  Mutex.unlock ambient_mutex

let ambient () =
  Mutex.lock ambient_mutex;
  let v =
    match !ambient_state with
    | Some v -> v
    | None ->
        let v =
          match Sys.getenv_opt "IPDS_CACHE_DIR" with
          | Some dir when dir <> "" -> Some (create ~dir)
          | _ -> None
        in
        ambient_state := Some v;
        v
  in
  Mutex.unlock ambient_mutex;
  v
