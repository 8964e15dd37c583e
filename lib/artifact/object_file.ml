exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let magic = "IPDSOBJF"

(* v4: the function digests in the "index" section are SHA-256 names
   ({!Ipds_core.Sha256.name}).  v3 files carried MD5 function digests
   there, v2 files a 16-byte MD5 whole-file digest at offset 16 and v1
   files a monolithic "tables" section; all fail the version check and
   load as a clean miss. *)
let format_version = 4
let header_bytes = 48
let digest_bytes = Ipds_core.Sha256.digest_length
let entry_bytes = 20
let name_bytes = 8
let max_sections = 4096

(* the whole-file digest covers everything after the header *)
let body_digest buf =
  Ipds_core.Sha256.bytes buf ~pos:header_bytes
    ~len:(Bytes.length buf - header_bytes)

type section_info = {
  s_name : string;
  s_offset : int;
  s_length : int;
  s_crc : int32;
  s_crc_ok : bool;
}

type info = {
  version : int;
  file_bytes : int;
  digest_hex : string;
  digest_ok : bool;
  sections : section_info list;
}

let to_bytes ~sections =
  List.iter
    (fun (name, _) ->
      if String.length name = 0 || String.length name > name_bytes then
        invalid_arg (Printf.sprintf "Object_file: bad section name %S" name))
    sections;
  if
    List.length (List.sort_uniq compare (List.map fst sections))
    <> List.length sections
  then invalid_arg "Object_file: duplicate section names";
  if List.length sections > max_sections then
    invalid_arg "Object_file: too many sections";
  let n = List.length sections in
  let table_off = header_bytes in
  let payload_off = table_off + (n * entry_bytes) in
  let total =
    List.fold_left (fun acc (_, p) -> acc + Bytes.length p) payload_off sections
  in
  let buf = Bytes.make total '\000' in
  Bytes.blit_string magic 0 buf 0 (String.length magic);
  Bytes.set_int32_le buf 8 (Int32.of_int format_version);
  Bytes.set_int32_le buf 12 (Int32.of_int n);
  let off = ref payload_off in
  List.iteri
    (fun i (name, payload) ->
      let e = table_off + (i * entry_bytes) in
      Bytes.blit_string name 0 buf e (String.length name);
      Bytes.set_int32_le buf (e + 8) (Int32.of_int !off);
      Bytes.set_int32_le buf (e + 12) (Int32.of_int (Bytes.length payload));
      Bytes.set_int32_le buf (e + 16) (Crc32.all payload);
      Bytes.blit payload 0 buf !off (Bytes.length payload);
      off := !off + Bytes.length payload)
    sections;
  Bytes.blit_string (body_digest buf) 0 buf 16 digest_bytes;
  buf

(* the raw digest the header claims, at offset 16 *)
let claimed_digest buf = Bytes.sub_string buf 16 digest_bytes

let header_digest s =
  if String.length s < header_bytes then None
  else Some (Ipds_core.Sha256.to_hex (claimed_digest (Bytes.unsafe_of_string s)))

(* header + section table, shared by the strict and forgiving readers *)
let read_table buf =
  let len = Bytes.length buf in
  if len < header_bytes then corrupt "truncated header (%d bytes)" len;
  if Bytes.sub_string buf 0 8 <> magic then corrupt "bad magic";
  let version = Int32.to_int (Bytes.get_int32_le buf 8) in
  if version <> format_version then
    corrupt "unsupported format version %d (expected %d)" version format_version;
  let n = Int32.to_int (Bytes.get_int32_le buf 12) in
  if n < 0 || n > max_sections then corrupt "implausible section count %d" n;
  if header_bytes + (n * entry_bytes) > len then corrupt "truncated section table";
  List.init n (fun i ->
      let e = header_bytes + (i * entry_bytes) in
      let name_raw = Bytes.sub_string buf e name_bytes in
      let name =
        match String.index_opt name_raw '\000' with
        | Some k -> String.sub name_raw 0 k
        | None -> name_raw
      in
      let offset = Int32.to_int (Bytes.get_int32_le buf (e + 8)) in
      let length = Int32.to_int (Bytes.get_int32_le buf (e + 12)) in
      let crc = Bytes.get_int32_le buf (e + 16) in
      if
        offset < header_bytes + (n * entry_bytes)
        || length < 0
        || offset + length > len
      then corrupt "section %s out of bounds" name;
      (name, offset, length, crc))

let digest_ok buf =
  String.equal (claimed_digest buf) (body_digest buf)

let spans_of_bytes buf =
  let entries = read_table buf in
  if not (digest_ok buf) then corrupt "whole-file digest mismatch";
  List.map
    (fun (name, offset, length, crc) ->
      if Crc32.bytes buf ~pos:offset ~len:length <> crc then
        corrupt "CRC mismatch in section %s" name;
      (name, offset, length))
    entries

let of_bytes buf =
  List.map
    (fun (name, offset, length) -> (name, Bytes.sub buf offset length))
    (spans_of_bytes buf)

let info_of_bytes buf =
  let entries = read_table buf in
  {
    version = Int32.to_int (Bytes.get_int32_le buf 8);
    file_bytes = Bytes.length buf;
    digest_hex = Ipds_core.Sha256.to_hex (claimed_digest buf);
    digest_ok = digest_ok buf;
    sections =
      List.map
        (fun (name, offset, length, crc) ->
          {
            s_name = name;
            s_offset = offset;
            s_length = length;
            s_crc = crc;
            s_crc_ok = Crc32.bytes buf ~pos:offset ~len:length = crc;
          })
        entries;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      let buf = Bytes.create n in
      really_input ic buf 0 n;
      buf)

let write_file_atomic path buf =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "ipds-obj" ".tmp" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_bytes oc buf);
      Sys.rename tmp path)
