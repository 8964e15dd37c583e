(* Interfaces no wider than their callers.  Fails, naming the export,
   for any [val] in lib/**/*.mli whose name

   - occurs nowhere outside its own module's .ml/.mli, or
   - occurs outside its own module only under test/, unless the doc
     comment directly after the declaration begins with "Test seam:".

   Every .ml and .mli under the directories given on the command line
   (lib bin perfbench examples test) is read with its comments
   stripped, and any occurrence of a bare identifier counts as a use:
   the check follows no module path, alias or open.  So it never fails
   an export that has a caller, but an unrelated identifier with the
   same spelling (a local [pp], a record field [size]) hides a dead
   export from it.  It is a floor, not a census.

   Usage: surface_check.exe LIB_DIR OTHER_DIR... *)

let rec walk dir acc =
  Array.fold_left
    (fun acc e ->
      let p = Filename.concat dir e in
      if Sys.is_directory p then walk p acc
      else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then
        p :: acc
      else acc)
    acc
    (let es = Sys.readdir dir in
     Array.sort compare es;
     es)

(* The source with every comment replaced by spaces (newlines kept, so
   line numbers survive).  String and character literals are skipped
   over so that a "(*" inside one opens nothing; quoted strings
   {id|...|id} are not, which no file here needs. *)
let strip_comments s =
  let b = Bytes.of_string s in
  let n = String.length s in
  let blank i = if Bytes.get b i <> '\n' then Bytes.set b i ' ' in
  let rec code i =
    if i >= n then ()
    else
      match s.[i] with
      | '(' when i + 1 < n && s.[i + 1] = '*' -> comment (i + 2) 1 [ i; i + 1 ]
      | '"' -> string (i + 1)
      | '\'' when i + 2 < n && s.[i + 1] <> '\\' && s.[i + 2] = '\'' -> code (i + 3)
      | '\'' when i + 2 < n && s.[i + 1] = '\\' ->
          (* the closing quote of '\n', '\'' or '\\' is at i + 3, a numeric
             escape's further on *)
          let j = ref (i + 3) in
          while !j < n && s.[!j] <> '\'' do incr j done;
          code (!j + 1)
      | _ -> code (i + 1)
  and string i =
    if i >= n then ()
    else
      match s.[i] with
      | '\\' -> string (i + 2)
      | '"' -> code (i + 1)
      | _ -> string (i + 1)
  and comment i depth opened =
    List.iter blank opened;
    if i >= n then ()
    else if s.[i] = '(' && i + 1 < n && s.[i + 1] = '*' then
      comment (i + 2) (depth + 1) [ i; i + 1 ]
    else if s.[i] = '*' && i + 1 < n && s.[i + 1] = ')' then (
      blank i;
      blank (i + 1);
      if depth = 1 then code (i + 2) else comment (i + 2) (depth - 1) [])
    else if s.[i] = '"' then (
      (* a string inside a comment is still lexed as a string *)
      let j = ref (i + 1) in
      while !j < n && s.[!j] <> '"' do
        if s.[!j] = '\\' then incr j;
        incr j
      done;
      for k = i to min (n - 1) !j do blank k done;
      comment (!j + 1) depth [])
    else comment (i + 1) depth [ i ]
  in
  code 0;
  Bytes.to_string b

let is_ident_start c = (c >= 'a' && c <= 'z') || c = '_'
let is_ident_char c =
  is_ident_start c || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '\''

(* Lowercase identifiers of [s], each also as the last component of a
   path: [M.name] yields [name]. *)
let idents s =
  let t = Hashtbl.create 256 in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if is_ident_char c then (
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do incr j done;
      if is_ident_start c then Hashtbl.replace t (String.sub s !i (!j - !i)) ();
      i := !j)
    else incr i
  done;
  t

let read path = In_channel.with_open_bin path In_channel.input_all
let lines s = Array.of_list (String.split_on_char '\n' s)

let indent l =
  let k = ref 0 in
  while !k < String.length l && l.[!k] = ' ' do incr k done;
  !k

let blank_line l = String.trim l = ""

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* [(name, line)] of every [val] declared in a stripped .mli. *)
let vals stripped =
  let ls = lines stripped in
  let out = ref [] in
  Array.iteri
    (fun i l ->
      let t = String.trim l in
      if starts_with ~prefix:"val " t then (
        let r = String.trim (String.sub t 4 (String.length t - 4)) in
        let j = ref 0 in
        while !j < String.length r && is_ident_char r.[!j] do incr j done;
        if !j > 0 && is_ident_start r.[0] then out := (String.sub r 0 !j, i) :: !out))
    ls;
  List.rev !out

(* Does the doc comment directly after the declaration at [line] begin
   with "Test seam:"?  The declaration runs on over lines indented
   deeper than its [val]. *)
let marked_seam raw line =
  let ls = lines raw in
  let ind = indent ls.(line) in
  let j = ref (line + 1) in
  while !j < Array.length ls && (not (blank_line ls.(!j))) && indent ls.(!j) > ind do
    incr j
  done;
  !j < Array.length ls && starts_with ~prefix:"(** Test seam:" (String.trim ls.(!j))

let module_of path =
  (Filename.dirname path, Filename.remove_extension (Filename.basename path))

let () =
  let dirs = List.tl (Array.to_list Sys.argv) in
  if dirs = [] then (
    prerr_endline "usage: surface_check.exe LIB_DIR OTHER_DIR...";
    exit 2);
  let lib_dir = List.hd dirs in
  let files = List.concat_map (fun d -> List.rev (walk d [])) dirs in
  let test_dir = List.find_opt (fun d -> Filename.basename d = "test") dirs in
  let in_test path =
    match test_dir with
    | Some d -> starts_with ~prefix:(d ^ Filename.dir_sep) path
    | None -> false
  in
  let sources =
    List.map
      (fun p ->
        let raw = read p in
        let stripped = strip_comments raw in
        (p, raw, stripped, idents stripped))
      files
  in
  let failures = ref 0 and checked = ref 0 in
  List.iter
    (fun (p, raw, stripped, _) ->
      if
        Filename.check_suffix p ".mli"
        && starts_with ~prefix:(lib_dir ^ Filename.dir_sep) p
      then
        List.iter
          (fun (name, line) ->
            incr checked;
            let own = module_of p in
            let users =
              List.filter_map
                (fun (q, _, _, ids) ->
                  if module_of q <> own && Hashtbl.mem ids name then Some q else None)
                sources
            in
            let fail why =
              incr failures;
              Printf.printf "%s:%d: val %s: %s\n" p (line + 1) name why
            in
            if users = [] then fail "no caller outside its own module"
            else if List.for_all in_test users && not (marked_seam raw line) then
              fail
                (Printf.sprintf
                   "used outside its module only from test/ (%s); drop it or \
                    begin its doc comment with \"Test seam:\""
                   (String.concat ", " (List.map Filename.basename users))))
          (vals stripped))
    sources;
  if !failures > 0 then (
    Printf.printf "surface-check: %d of %d exports fail\n" !failures !checked;
    exit 1)
  else
    Printf.printf
      "surface-check: %d exports, each with a caller or marked as a test seam\n"
      !checked
