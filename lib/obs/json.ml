type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* One printer for both layouts.  Without [indent] nothing but the
   values is emitted, so one value per line is valid JSONL; with it,
   every non-empty list and object puts each element on its own line,
   [indent] spaces deeper than its parent. *)
let to_string ?indent t =
  let buf = Buffer.create 256 in
  let newline level =
    Option.iter
      (fun n ->
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (level * n) ' '))
      indent
  in
  let colon = if indent = None then "\":" else "\": " in
  let seq level opening closing emit = function
    | [] ->
        Buffer.add_char buf opening;
        Buffer.add_char buf closing
    | items ->
        Buffer.add_char buf opening;
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            newline (level + 1);
            emit item)
          items;
        newline level;
        Buffer.add_char buf closing
  in
  let rec go level = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | List items -> seq level '[' ']' (go (level + 1)) items
    | Obj fields ->
        seq level '{' '}'
          (fun (k, v) ->
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf colon;
            go (level + 1) v)
          fields
  in
  go 0 t;
  Buffer.contents buf

(* Atomic: a crash mid-write leaves at worst a stale temp file, never a
   truncated report at [path].  The temp name is unique per process and
   per call — a fixed [path ^ ".tmp"] would let two concurrent writers
   (parallel bench invocations sharing an output dir, or two domains)
   interleave write/rename and publish a mixed report. *)
let tmp_serial = Atomic.make 0

let write_file ?indent path t =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_serial 1)
  in
  let oc = open_out tmp in
  (match
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
         output_string oc (to_string ?indent t);
         output_char oc '\n')
   with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  match Sys.rename tmp path with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

(* {2 Parsing} -- for report validation and the smoke tests. *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "%s at %d" m !pos))) fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do advance () done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "expected %C, found %C" c c'
    | None -> fail "expected %C, found end of input" c
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'u' ->
                   advance ();
                   if !pos + 4 > n then fail "truncated \\u escape";
                   let code =
                     try int_of_string ("0x" ^ String.sub s !pos 4)
                     with Failure _ -> fail "bad \\u escape"
                   in
                   pos := !pos + 4;
                   (* encode the code point as UTF-8; our own emitter only
                      produces \u00xx, but accept the full BMP *)
                   if code < 0x80 then Buffer.add_char buf (Char.chr code)
                   else if code < 0x800 then begin
                     Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end
                   else begin
                     Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                     Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end
               | c -> fail "bad escape \\%C" c);
            go ()
        | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let continue = ref true in
    while !continue && !pos < n do
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' -> advance ()
      | '.' | 'e' | 'E' ->
          is_float := true;
          advance ()
      | _ -> continue := false
    done;
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number %S" text
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> fail "bad number %S" text
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let fields = ref [] in
          let rec field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); field ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          field ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let items = ref [] in
          let rec item () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); item ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          item ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail "unexpected %C" c
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None
