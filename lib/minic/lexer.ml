type token =
  | IDENT of string
  | INT of int
  | KW_INT
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_FOR
  | KW_RETURN
  | KW_BREAK
  | KW_CONTINUE
  | KW_OUTPUT
  | KW_INPUT
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | LBRACE
  | RBRACE
  | SEMI
  | COMMA
  | ASSIGN
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | AMP
  | PIPE
  | CARET
  | SHL
  | SHR
  | LT
  | LE
  | GT
  | GE
  | EQ
  | NE
  | ANDAND
  | OROR
  | BANG
  | EOF

exception Error of string

let keyword = function
  | "int" -> Some KW_INT
  | "if" -> Some KW_IF
  | "else" -> Some KW_ELSE
  | "while" -> Some KW_WHILE
  | "for" -> Some KW_FOR
  | "return" -> Some KW_RETURN
  | "break" -> Some KW_BREAK
  | "continue" -> Some KW_CONTINUE
  | "output" -> Some KW_OUTPUT
  | "input" -> Some KW_INPUT
  | _ -> None

let describe = function
  | IDENT s -> s
  | INT n -> string_of_int n
  | KW_INT -> "int"
  | KW_IF -> "if"
  | KW_ELSE -> "else"
  | KW_WHILE -> "while"
  | KW_FOR -> "for"
  | KW_RETURN -> "return"
  | KW_BREAK -> "break"
  | KW_CONTINUE -> "continue"
  | KW_OUTPUT -> "output"
  | KW_INPUT -> "input"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | SEMI -> ";"
  | COMMA -> ","
  | ASSIGN -> "="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | AMP -> "&"
  | PIPE -> "|"
  | CARET -> "^"
  | SHL -> "<<"
  | SHR -> ">>"
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | EQ -> "=="
  | NE -> "!="
  | ANDAND -> "&&"
  | OROR -> "||"
  | BANG -> "!"
  | EOF -> "<eof>"

(* Two arrays grown by doubling, made from immediates ([EOF], [0]): an
   [Array.of_list] of young tuples over 256 words would force a minor
   collection on every compile.  Generated members and the built-ins
   run 2.2 bytes per token at the densest, so [n / 2] slots rarely
   grow. *)
let tokens src =
  let n = String.length src in
  let cap = (n / 2) + 16 in
  let toks = ref (Array.make cap EOF) and lines = ref (Array.make cap 0) in
  let count = ref 0 in
  let line = ref 1 in
  let i = ref 0 in
  let push t =
    if !count = Array.length !toks then begin
      toks := Array.append !toks (Array.make !count EOF);
      lines := Array.append !lines (Array.make !count 0)
    end;
    Array.unsafe_set !toks !count t;
    Array.unsafe_set !lines !count !line;
    incr count
  in
  let is_digit c = c >= '0' && c <= '9' in
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'
  in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && peek 1 = Some '/' then
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    else if c = '/' && peek 1 = Some '*' then begin
      i := !i + 2;
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '\n' then incr line;
        if src.[!i] = '*' && peek 1 = Some '/' then begin
          closed := true;
          i := !i + 2
        end
        else incr i
      done;
      if not !closed then raise (Error (Printf.sprintf "line %d: unclosed comment" !line))
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do
        incr i
      done;
      push (INT (int_of_string (String.sub src start (!i - start))))
    end
    else if is_ident c then begin
      let start = !i in
      while !i < n && is_ident src.[!i] do
        incr i
      done;
      let word = String.sub src start (!i - start) in
      push (match keyword word with Some k -> k | None -> IDENT word)
    end
    else begin
      let two t =
        push t;
        i := !i + 2
      in
      let one t =
        push t;
        incr i
      in
      match c, peek 1 with
      | '=', Some '=' -> two EQ
      | '!', Some '=' -> two NE
      | '<', Some '=' -> two LE
      | '>', Some '=' -> two GE
      | '<', Some '<' -> two SHL
      | '>', Some '>' -> two SHR
      | '&', Some '&' -> two ANDAND
      | '|', Some '|' -> two OROR
      | '=', _ -> one ASSIGN
      | '!', _ -> one BANG
      | '<', _ -> one LT
      | '>', _ -> one GT
      | '&', _ -> one AMP
      | '|', _ -> one PIPE
      | '^', _ -> one CARET
      | '+', _ -> one PLUS
      | '-', _ -> one MINUS
      | '*', _ -> one STAR
      | '/', _ -> one SLASH
      | '%', _ -> one PERCENT
      | '(', _ -> one LPAREN
      | ')', _ -> one RPAREN
      | '[', _ -> one LBRACKET
      | ']', _ -> one RBRACKET
      | '{', _ -> one LBRACE
      | '}', _ -> one RBRACE
      | ';', _ -> one SEMI
      | ',', _ -> one COMMA
      | _, _ -> raise (Error (Printf.sprintf "line %d: bad character %c" !line c))
    end
  done;
  push EOF;
  (!toks, !lines)
