module Mir = Ipds_mir
module Core = Ipds_core
module Corr = Ipds_correlation
module W = Core.Bitstream.Writer
module R = Core.Bitstream.Reader

exception Corrupt = Object_file.Corrupt

let corrupt fmt = Printf.ksprintf (fun s -> raise (Object_file.Corrupt s)) fmt

(* ---------- bit-packed helpers ---------- *)

let push_str w s =
  W.push w ~width:16 (String.length s);
  W.push_string w s

let pull_str r = R.pull_string r (R.pull r ~width:16)

(* Decode one section, turning a short or malformed read into
   [Corrupt "<what> section: ..."]. *)
let in_section what decode =
  try decode () with
  | Invalid_argument m -> corrupt "%s section: %s" what m
  | Core.Bitstream.Past_end -> corrupt "%s section: past end of stream" what

(* ---------- layout section ---------- *)

let encode_layout entries =
  let w = W.create () in
  W.push w ~width:32 (List.length entries);
  List.iter
    (fun (name, base, count) ->
      push_str w name;
      W.push w ~width:32 base;
      W.push w ~width:32 count)
    entries;
  W.contents w

let decode_layout r =
  in_section "layout" (fun () ->
      let n = R.pull r ~width:32 in
      if n > 100_000 then corrupt "layout: implausible entry count %d" n;
      List.init n (fun _ ->
          let name = pull_str r in
          let base = R.pull r ~width:32 in
          let count = R.pull r ~width:32 in
          (name, base, count)))

(* ---------- index section ---------- *)

type func_meta = {
  m_name : string;
  m_entry_pc : int;
  m_branches : int;
  m_digest : string;
  m_checked : int list;
}

let encode_meta w name (i : Core.System.func_info) =
  push_str w name;
  W.push w ~width:32 i.Core.System.entry_pc;
  W.push w ~width:16 i.Core.System.image.Core.Image.n_branches;
  push_str w i.Core.System.digest;
  let checked = i.Core.System.result.Corr.Analysis.checked in
  W.push w ~width:16 (List.length checked);
  List.iter (fun iid -> W.push w ~width:32 iid) checked

let decode_meta r =
  let m_name = pull_str r in
  let m_entry_pc = R.pull r ~width:32 in
  let m_branches = R.pull r ~width:16 in
  let m_digest = pull_str r in
  let n_checked = R.pull r ~width:16 in
  let m_checked = List.init n_checked (fun _ -> R.pull r ~width:32) in
  { m_name; m_entry_pc; m_branches; m_digest; m_checked }

let encode_index funcs =
  let w = W.create () in
  W.push w ~width:16 (List.length funcs);
  List.iter (fun (name, info) -> encode_meta w name info) funcs;
  W.contents w

let decode_index r =
  in_section "index" (fun () ->
      let n = R.pull r ~width:16 in
      List.init n (fun _ -> decode_meta r))

(* ---------- save ---------- *)

let fsect i = Printf.sprintf "f%d" i

let to_bytes (sys : Core.System.t) =
  Object_file.to_bytes
    ~sections:
      (("code",
        Bytes.of_string (Mir.Printer.program_to_string sys.Core.System.program))
      :: ("layout", encode_layout (Mir.Layout.entries sys.Core.System.layout))
      :: ("index", encode_index sys.Core.System.funcs)
      :: List.mapi
           (fun i (_, (info : Core.System.func_info)) ->
             ( fsect i,
               Core.Encode.function_image ~entry_pc:info.Core.System.entry_pc
                 info.Core.System.image ))
           sys.Core.System.funcs)

(* ---------- load ---------- *)

(* Rebuild the analysis-result view of one function from its decoded
   image: the collision-free hash maps BAT slots back to branch iids,
   so edge and entry actions are fully recoverable; [depends] (pure
   provenance) is not and loads empty. *)
let reconstruct ~layout (f : Mir.Func.t) ~entry_pc ~digest ~(image : Core.Image.t)
    ~checked ~n_branches =
  let fname = f.Mir.Func.name in
  let branch_iids = List.map fst (Mir.Func.branches f) in
  if
    image.Core.Image.n_branches <> List.length branch_iids
    || n_branches <> List.length branch_iids
  then corrupt "%s: branch count disagrees with code section" fname;
  let space = image.Core.Image.space in
  let slot iid = Core.Image.slot_of_pc image (Mir.Layout.pc layout ~fname ~iid) in
  let inv = Hashtbl.create 16 in
  List.iter
    (fun iid ->
      let s = slot iid in
      if Hashtbl.mem inv s then
        corrupt "%s: shipped hash parameters collide on branch PCs" fname;
      if s < 0 || s >= space then
        corrupt "%s: branch slot %d outside hash space" fname s;
      Hashtbl.add inv s iid)
    branch_iids;
  let iid_of_slot s =
    match Hashtbl.find_opt inv s with
    | Some iid -> iid
    | None -> corrupt "%s: table refers to slot %d with no branch" fname s
  in
  List.iter
    (fun iid ->
      if not (List.mem iid branch_iids) then
        corrupt "%s: checked iid %d is not a branch" fname iid;
      if not (Core.Image.checked image (slot iid)) then
        corrupt "%s: checked iid %d missing from BCV" fname iid)
    checked;
  let bcv_population = ref 0 in
  for s = 0 to space - 1 do
    if Core.Image.checked image s then incr bcv_population
  done;
  if !bcv_population <> List.length (List.sort_uniq compare checked) then
    corrupt "%s: BCV population disagrees with checked list" fname;
  let row_actions row =
    let rw = image.Core.Image.rows.(row) in
    List.init (Core.Image.row_len rw) (fun k ->
        let w = image.Core.Image.nodes.(Core.Image.row_off rw + k) in
        (iid_of_slot (Core.Image.node_slot w), Core.Image.node_action w))
  in
  let edge_actions = ref [] in
  for row = 0 to (2 * space) - 1 do
    if Core.Image.row_len image.Core.Image.rows.(row) > 0 then
      edge_actions :=
        ((iid_of_slot (row / 2), row mod 2 = 1), row_actions row) :: !edge_actions
  done;
  {
    Core.System.entry_pc;
    digest;
    image;
    result =
      {
        Corr.Analysis.func = f;
        depends = [];
        checked;
        edge_actions = List.rev !edge_actions;
        entry_actions = row_actions (Core.Image.entry_row_index image);
      };
    (* refinement stats are build-time telemetry, not part of the format *)
    refine = None;
  }

(* The index and the per-function flat images, decoded in place from a
   container whose digest and every section CRC (code included) have
   been verified; each image is assembled through [Image.make], which
   runs [Image.validate].  Both loads start here.  Returns a reader over
   any section, and each function's index entry with its image. *)
let decode_images bytes =
  let spans = Object_file.spans_of_bytes bytes in
  let section name =
    match List.find_opt (fun (n, _, _) -> String.equal n name) spans with
    | Some (_, pos, len) -> (pos, len)
    | None -> corrupt "missing section %s" name
  in
  let metas =
    let pos, len = section "index" in
    decode_index (R.of_span bytes ~pos ~len)
  in
  let seen = Hashtbl.create 16 in
  ( section,
    List.mapi
      (fun i meta ->
        if Hashtbl.mem seen meta.m_name then
          corrupt "index names %s twice" meta.m_name;
        Hashtbl.add seen meta.m_name ();
        let pos, len = section (fsect i) in
        let tpc, image =
          in_section (fsect i) (fun () -> Core.Encode.decode_image bytes ~pos ~len)
        in
        if not (String.equal meta.m_name image.Core.Image.fname) then
          corrupt "index/%s disagree on name (%s vs %s)" (fsect i) meta.m_name
            image.Core.Image.fname;
        if meta.m_entry_pc <> tpc then
          corrupt "%s: index/tables disagree on entry pc" meta.m_name;
        if meta.m_branches <> image.Core.Image.n_branches then
          corrupt "%s: index/tables disagree on branch count" meta.m_name;
        (meta, image))
      metas )

(* The checker's view, as the IPDS unit loads it (§5): the code
   section's parse and the cross-checks against it are skipped. *)
let images_of_bytes bytes =
  List.map (fun (meta, image) -> (meta.m_name, image)) (snd (decode_images bytes))

let of_bytes bytes =
  let section, funcs = decode_images bytes in
  let program =
    let pos, len = section "code" in
    try Mir.Parser.program_of_string (Bytes.sub_string bytes pos len) with
    | Mir.Parser.Parse_error m -> corrupt "code section: %s" m
    | Invalid_argument m -> corrupt "code section: %s" m
  in
  let layout = Mir.Layout.make program in
  (let pos, len = section "layout" in
   if decode_layout (R.of_span bytes ~pos ~len) <> Mir.Layout.entries layout then
     corrupt "layout section disagrees with code section");
  if List.length funcs <> List.length program.Mir.Program.funcs then
    corrupt "index disagrees with code section on function count";
  let funcs =
    List.map
      (fun (meta, image) ->
        let f =
          match Mir.Program.find_func program meta.m_name with
          | Some f -> f
          | None -> corrupt "%s: not defined in code section" meta.m_name
        in
        if Mir.Layout.func_base layout meta.m_name <> meta.m_entry_pc then
          corrupt "%s: entry pc disagrees with layout" meta.m_name;
        ( meta.m_name,
          reconstruct ~layout f ~entry_pc:meta.m_entry_pc ~digest:meta.m_digest
            ~image ~checked:meta.m_checked
            ~n_branches:meta.m_branches ))
      funcs
  in
  Core.System.make ~program ~layout ~funcs

(* ---------- single-function blobs (incremental cache tier) ---------- *)

let func_image (info : Core.System.func_info) =
  let w = W.create () in
  encode_meta w info.Core.System.result.Corr.Analysis.func.Mir.Func.name info;
  Object_file.to_bytes
    ~sections:
      [
        ("meta", W.contents w);
        ( "tables",
          Core.Encode.function_image ~entry_pc:info.Core.System.entry_pc
            info.Core.System.image );
      ]

let func_of_image ~digest ~layout (f : Mir.Func.t) bytes =
  let sections = Object_file.of_bytes bytes in
  let sect name =
    match List.assoc_opt name sections with
    | Some b -> b
    | None -> corrupt "missing section %s" name
  in
  let meta =
    in_section "meta" (fun () ->
        let r = R.of_bytes (sect "meta") in
        decode_meta r)
  in
  let tpc, image =
    in_section "tables" (fun () ->
        let b = sect "tables" in
        Core.Encode.decode_image b ~pos:0 ~len:(Bytes.length b))
  in
  if not (String.equal meta.m_name f.Mir.Func.name) then
    corrupt "function blob is for %s, wanted %s" meta.m_name f.Mir.Func.name;
  if not (String.equal meta.m_digest digest) then
    corrupt "%s: function blob digest mismatch" meta.m_name;
  if meta.m_entry_pc <> tpc then
    corrupt "%s: meta/tables disagree on entry pc" meta.m_name;
  if Mir.Layout.func_base layout meta.m_name <> meta.m_entry_pc then
    corrupt "%s: entry pc disagrees with current layout" meta.m_name;
  reconstruct ~layout f ~entry_pc:meta.m_entry_pc ~digest:meta.m_digest ~image
    ~checked:meta.m_checked ~n_branches:meta.m_branches

(* ---------- files ---------- *)

let save_file path sys = Object_file.write_file_atomic path (to_bytes sys)
let load_file path = of_bytes (Object_file.read_file path)

let is_artifact_file path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (String.length Object_file.magic) with
          | s -> String.equal s Object_file.magic
          | exception End_of_file -> false)

(* ---------- inspection ---------- *)

type func_summary = {
  fname : string;
  entry_pc : int;
  n_branches : int;
  digest : string;
  sizes : Ipds_core.Image.sizes;
}

type inspection = {
  file : Object_file.info;
  funcs : func_summary list option;
}

let inspect_bytes bytes =
  let file = Object_file.info_of_bytes bytes in
  let intact =
    file.Object_file.digest_ok
    && List.for_all (fun s -> s.Object_file.s_crc_ok) file.Object_file.sections
  in
  let funcs =
    if not intact then None
    else
      match of_bytes bytes with
      | sys ->
          Some
            (List.map
               (fun (name, (i : Core.System.func_info)) ->
                 {
                   fname = name;
                   entry_pc = i.Core.System.entry_pc;
                   n_branches = i.Core.System.image.Core.Image.n_branches;
                   digest = i.Core.System.digest;
                   sizes = Core.Image.sizes i.Core.System.image;
                 })
               sys.Core.System.funcs)
      | exception Object_file.Corrupt _ -> None
  in
  { file; funcs }

let inspect_file path = inspect_bytes (Object_file.read_file path)

let pp_inspection ppf t =
  let i = t.file in
  Format.fprintf ppf "IPDS object file: format v%d, %d bytes@."
    i.Object_file.version i.Object_file.file_bytes;
  Format.fprintf ppf "  sha256 %s %s@." i.Object_file.digest_hex
    (if i.Object_file.digest_ok then "(ok)" else "(MISMATCH)");
  List.iter
    (fun (s : Object_file.section_info) ->
      Format.fprintf ppf "  section %-8s  offset %6d  %7d bytes  crc 0x%08lx %s@."
        s.Object_file.s_name s.Object_file.s_offset s.Object_file.s_length
        s.Object_file.s_crc
        (if s.Object_file.s_crc_ok then "ok" else "BAD CRC"))
    i.Object_file.sections;
  match t.funcs with
  | None -> Format.fprintf ppf "  (tables not decodable: file is corrupt)@."
  | Some funcs ->
      List.iter
        (fun f ->
          Format.fprintf ppf
            "  func %-16s entry 0x%x  %3d branches  digest %s  BSV %d / BCV %d / BAT %d bits@."
            f.fname f.entry_pc f.n_branches
            (String.sub f.digest 0 (min 12 (String.length f.digest)))
            f.sizes.Core.Image.bsv_bits f.sizes.Core.Image.bcv_bits
            f.sizes.Core.Image.bat_bits)
        funcs
