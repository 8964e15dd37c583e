(* The whole text is lexed first, so a lexical error anywhere wins over a
   parse error.  Tokens live in two int arrays and carry no strings: a
   keyword or register is read in place in the text, and a name becomes
   a string once, the first time the parser meets it. *)

exception Parse_error of string

(* ---------- Tokens ---------- *)

(* Token kinds.  [eof] is 0, so the zeroed slots past the last token
   read as end of input. *)
let eof = 0
let ident_k = 1
let int_k = 2
let lparen = 3
let rparen = 4
let lbracket = 5
let rbracket = 6
let lbrace = 7
let rbrace = 8
let comma = 9
let colon = 10
let equals = 11

let kind_name k =
  match k with
  | 3 -> "("
  | 4 -> ")"
  | 5 -> "["
  | 6 -> "]"
  | 7 -> "{"
  | 8 -> "}"
  | 9 -> ","
  | 10 -> ":"
  | 11 -> "="
  | _ -> "<eof>"

(* Token [i] is [toks.(i) land 15], its kind, with the offset of its
   first character above those 4 bits; [args.(i)] is an integer's value
   or the offset just past an identifier. *)
type stream = {
  src : string;
  mutable toks : int array;
  mutable args : int array;
  mutable pos : int;
  mutable names : string array;  (* interned identifiers; "" is a free slot *)
  mutable nnames : int;
}

let[@inline] kind_at s i = Array.unsafe_get s.toks i land 15
let[@inline] start s i = Array.unsafe_get s.toks i lsr 4
let[@inline] kind s = kind_at s s.pos

(* Lines are counted only for a message: 1 plus the newlines before
   offset [off]. *)
let line_at src off =
  let line = ref 1 in
  for j = 0 to off - 1 do
    if String.unsafe_get src j = '\n' then incr line
  done;
  !line

let line_of s i = line_at s.src (start s i)

let show s i =
  let k = kind_at s i in
  if k = ident_k then String.sub s.src (start s i) (s.args.(i) - start s i)
  else if k = int_k then string_of_int s.args.(i)
  else kind_name k

(* ---------- Lexer ---------- *)

(* Each byte's class, one table lookup in the lexer's loops: a
   punctuation character's class is [punct] plus its token kind. *)
let bad = 0
let blank = 1
let digit = 2
let letter = 3
let comment = 4
let minus = 5
let punct = 16

let classes =
  String.init 256 (fun code ->
      Char.chr
        (match Char.chr code with
        | ' ' | '\n' | '\t' | '\r' -> blank
        | '0' .. '9' -> digit
        | 'a' .. 'z' | 'A' .. 'Z' | '_' -> letter
        | '#' -> comment
        | '-' -> minus
        | '(' -> punct + lparen
        | ')' -> punct + rparen
        | '[' -> punct + lbracket
        | ']' -> punct + rbracket
        | '{' -> punct + lbrace
        | '}' -> punct + rbrace
        | ',' -> punct + comma
        | ':' -> punct + colon
        | '=' -> punct + equals
        | _ -> bad))

let[@inline] class_of c = Char.code (String.unsafe_get classes (Char.code c))
let[@inline] is_digit c = c >= '0' && c <= '9'

(* A digit or a letter: class 2 or 3. *)
let[@inline] is_ident_char c = class_of c lor 1 = letter

let lex src =
  let n = String.length src in
  let cap = (n / 3) + 16 in
  let s =
    { src; toks = Array.make cap 0; args = Array.make cap 0; pos = 0;
      names = Array.make 64 ""; nnames = 0 }
  in
  let count = ref 0 in
  (* One slot always stays free past the last token, for lookahead. *)
  let push k at arg =
    if !count + 1 = Array.length s.toks then begin
      s.toks <- Array.append s.toks (Array.make !count 0);
      s.args <- Array.append s.args (Array.make !count 0)
    end;
    Array.unsafe_set s.toks !count (k lor (at lsl 4));
    Array.unsafe_set s.args !count arg;
    incr count
  in
  let out_of_range at =
    raise (Parse_error (Printf.sprintf "line %d: integer literal out of range" (line_at src at)))
  in
  let i = ref 0 in
  while !i < n do
    let c = String.unsafe_get src !i in
    let cl = class_of c in
    if cl = blank then incr i
    else if cl = letter then begin
      let at = !i in
      incr i;
      while !i < n && is_ident_char (String.unsafe_get src !i) do
        incr i
      done;
      push ident_k at !i
    end
    else if cl >= punct then begin
      push (cl - punct) !i 0;
      incr i
    end
    else if cl = digit || (cl = minus && !i + 1 < n && is_digit src.[!i + 1]) then begin
      let at = !i in
      (* Accumulated as a negative number, whose range reaches [min_int]. *)
      if c = '-' then incr i;
      let acc = ref 0 in
      while !i < n && is_digit (String.unsafe_get src !i) do
        let d = Char.code (String.unsafe_get src !i) - Char.code '0' in
        if !acc < (min_int + d) / 10 then out_of_range !i;
        acc := (10 * !acc) - d;
        incr i
      done;
      if c = '-' then push int_k at !acc
      else if !acc = min_int then out_of_range !i
      else push int_k at (- !acc)
    end
    else if cl = comment then
      while !i < n && String.unsafe_get src !i <> '\n' do
        incr i
      done
    else raise (Parse_error (Printf.sprintf "line %d: bad character %c" (line_at src !i) c))
  done;
  push eof n 0;
  s

(* ---------- Identifiers in place ---------- *)

(* [len] characters of [a] from [i] equal those of [b] from [j]. *)
let rec same_chars a i b j len =
  len = 0
  || String.unsafe_get a i = String.unsafe_get b j && same_chars a (i + 1) b (j + 1) (len - 1)

(* Identifier [i] spells [w]. *)
let word s i w =
  let a = start s i in
  let len = String.length w in
  kind_at s i = ident_k && s.args.(i) - a = len && same_chars s.src a w 0 len

let hash_sub str a b =
  let h = ref 0 in
  for j = a to b - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get str j)
  done;
  !h land max_int

(* Identifier [i] as a string, made the first time its spelling is
   seen: open addressing over [names], at most half full. *)
let rec name s i =
  if 2 * (s.nnames + 1) > Array.length s.names then begin
    let old = s.names in
    s.names <- Array.make (2 * Array.length old) "";
    Array.iter (fun str -> if str <> "" then s.names.(slot s str 0 (String.length str)) <- str) old
  end;
  let a = start s i and b = s.args.(i) in
  let j = slot s s.src a b in
  let str = s.names.(j) in
  if str <> "" then str
  else begin
    let str = String.sub s.src a (b - a) in
    s.names.(j) <- str;
    s.nnames <- s.nnames + 1;
    str
  end

(* The slot of [names] that holds [str]'s characters [a, b), or the free
   slot where they belong. *)
and slot s str a b = probe s.names (Array.length s.names - 1) (hash_sub str a b) str a b

and probe names mask j str a b =
  let j = j land mask in
  let held = Array.unsafe_get names j in
  if held = "" || (String.length held = b - a && same_chars held 0 str a (b - a)) then j
  else probe names mask (j + 1) str a b

(* Identifier [i] read as a register index, or [-1]: [r] and up to 18
   digits, as the printer writes registers, is read in place; other
   [r]-words keep [int_of_string_opt]'s syntax ([r0x1f]). *)
let reg_index s i =
  let a = start s i and b = s.args.(i) in
  let len = b - a in
  if kind_at s i <> ident_k || len < 2 || s.src.[a] <> 'r' then -1
  else begin
    let n = ref 0 and j = ref (a + 1) in
    while !j < b && is_digit s.src.[!j] do
      n := (10 * !n) + Char.code s.src.[!j] - Char.code '0';
      incr j
    done;
    if !j = b && len <= 19 then !n
    else
      match int_of_string_opt (String.sub s.src (a + 1) (len - 1)) with
      | Some n when n >= 0 -> n
      | Some _ | None -> -1
  end

(* The element of [all] whose [to_string] identifier [i] spells. *)
let rec spelled s i to_string = function
  | [] -> None
  | x :: rest -> if word s i (to_string x) then Some x else spelled s i to_string rest

(* ---------- Token stream ---------- *)

let fail s fmt =
  Printf.ksprintf
    (fun m -> raise (Parse_error (Printf.sprintf "line %d: %s" (line_of s s.pos) m)))
    fmt

(* Consumes the current token, except the final [eof], and returns its
   index. *)
let next s =
  let i = s.pos in
  if kind_at s i <> eof then s.pos <- i + 1;
  i

let expect s k =
  let i = next s in
  if kind_at s i <> k then
    raise
      (Parse_error
         (Printf.sprintf "line %d: expected %s, got %s" (line_of s (s.pos - 1)) (kind_name k)
            (show s i)))

(* The next token, which must be an identifier. *)
let ident_tok s =
  let i = next s in
  if kind_at s i <> ident_k then fail s "expected identifier, got %s" (show s i);
  i

let ident s = name s (ident_tok s)

let int_lit s =
  let i = next s in
  if kind_at s i <> int_k then fail s "expected integer, got %s" (show s i);
  s.args.(i)

let reg s =
  let i = next s in
  let r = reg_index s i in
  if r < 0 then fail s "expected register, got %s" (show s i);
  Reg.make r

let bracketed s item =
  expect s lbracket;
  let x = item () in
  expect s rbracket;
  x

let size s = if kind s = lbracket then Some (bracketed s (fun () -> int_lit s)) else None

(* One or more [item]s separated by commas. *)
let comma_list s item =
  let rec more acc =
    if kind s <> comma then List.rev acc
    else begin
      expect s comma;
      more (item () :: acc)
    end
  in
  more [ item () ]

(* ---------- Parser proper ---------- *)

type fstate = {
  fb : Builder.fb;
  locals : (string, Var.t) Hashtbl.t;
  labels : (string, Builder.label) Hashtbl.t;
}

let touch_reg fs r = Builder.reserve_regs fs.fb (Reg.index r + 1)

let operand fs s =
  let i = next s in
  if kind_at s i = int_k then Operand.imm s.args.(i)
  else begin
    let r = reg_index s i in
    if r < 0 then
      fail s "expected operand, got %s" (show s i);
    let r = Reg.make r in
    touch_reg fs r;
    Operand.reg r
  end

let find_var globals fs s name =
  match Hashtbl.find_opt fs.locals name with
  | Some v -> v
  | None -> (
      match Hashtbl.find_opt globals name with
      | Some v -> v
      | None -> fail s "unknown variable %s" name)

let addr globals fs s =
  let k = kind s in
  if k = lbracket then begin
    let r = bracketed s (fun () -> reg s) in
    touch_reg fs r;
    Addr.Indirect r
  end
  else if k = ident_k then begin
    let v = find_var globals fs s (name s (next s)) in
    if kind s = lbracket then Addr.Index (v, bracketed s (fun () -> operand fs s))
    else Addr.Direct v
  end
  else fail s "expected address, got %s" (show s s.pos)

let call_args fs s =
  expect s lparen;
  let args = if kind s = rparen then [] else comma_list s (fun () -> operand fs s) in
  expect s rparen;
  args

let lookup_label fs name =
  match Hashtbl.find_opt fs.labels name with
  | Some l -> l
  | None ->
      let l = Builder.new_label fs.fb name in
      Hashtbl.add fs.labels name l;
      l

let emit fb op =
  Builder.emit fb op;
  false

(* [r = ...]: the instruction that defines register [r]. *)
let assign globals fs s r =
  let fb = fs.fb in
  let r = Reg.make r in
  touch_reg fs r;
  expect s equals;
  let j = next s in
  if kind_at s j = int_k then emit fb (Op.Const (r, s.args.(j)))
  else if kind_at s j <> ident_k then fail s "bad right-hand side %s" (show s j)
  else if word s j "load" then emit fb (Op.Load (r, addr globals fs s))
  else if word s j "addr" then begin
    let v = find_var globals fs s (ident s) in
    emit fb (Op.Addr_of (r, v, bracketed s (fun () -> operand fs s)))
  end
  else if word s j "call" then begin
    let callee = ident s in
    emit fb (Op.Call { dst = Some r; callee; args = call_args fs s })
  end
  else if word s j "input" then emit fb (Op.Input (r, int_lit s))
  else begin
    let src = reg_index s j in
    if src >= 0 then begin
      let src = Reg.make src in
      touch_reg fs src;
      emit fb (Op.Move (r, Operand.reg src))
    end
    else
      match spelled s j Binop.to_string Binop.all with
      | Some op ->
          let a = operand fs s in
          expect s comma;
          emit fb (Op.Binop (r, op, a, operand fs s))
      | None -> fail s "unknown instruction %s" (show s j)
  end

(* Parses one instruction or terminator.  Returns [true] when the block was
   terminated.  No keyword reads as a register, so registers are tried
   first. *)
let instr globals fs s =
  let fb = fs.fb in
  let i = next s in
  let r = reg_index s i in
  if r >= 0 then assign globals fs s r
  else if word s i "store" then begin
    let a = addr globals fs s in
    expect s comma;
    emit fb (Op.Store (a, operand fs s))
  end
  else if word s i "output" then emit fb (Op.Output (operand fs s))
  else if word s i "nop" then emit fb Op.Nop
  else if word s i "call" then begin
    let callee = ident s in
    emit fb (Op.Call { dst = None; callee; args = call_args fs s })
  end
  else if word s i "jmp" then begin
    Builder.jump fb (lookup_label fs (ident s));
    true
  end
  else if word s i "br" then begin
    let c =
      match spelled s (ident_tok s) Cmp.to_string Cmp.all with
      | Some c -> c
      | None -> fail s "bad comparison"
    in
    let lhs = reg s in
    touch_reg fs lhs;
    expect s comma;
    let rhs = operand fs s in
    expect s comma;
    let if_true = lookup_label fs (ident s) in
    expect s comma;
    let if_false = lookup_label fs (ident s) in
    Builder.branch fb c lhs rhs if_true if_false;
    true
  end
  else if word s i "ret" then begin
    Builder.ret fb
      (if kind s = int_k || reg_index s s.pos >= 0 then Some (operand fs s) else None);
    true
  end
  else if word s i "halt" then begin
    Builder.halt fb;
    true
  end
  else fail s "unexpected %s" (show s i)

let func_body globals fs s =
  (* Leading "var" declarations. *)
  while word s s.pos "var" && kind_at s (s.pos + 1) <> colon do
    ignore (next s);
    let name = ident s in
    Hashtbl.replace fs.locals name (Builder.local fs.fb ?size:(size s) name)
  done;
  (* Pre-scan the body's tokens for label definitions (identifier, ':')
     so block indices follow definition order, keeping print/parse round
     trips stable. *)
  let rec prescan i first =
    let k = kind_at s i in
    if k = rbrace || k = eof then ()
    else if k = ident_k && kind_at s (i + 1) = colon then begin
      let label = name s i in
      if first then Hashtbl.replace fs.labels label (Builder.entry_label fs.fb)
      else if not (Hashtbl.mem fs.labels label) then
        Hashtbl.replace fs.labels label (Builder.new_label fs.fb label);
      prescan (i + 2) false
    end
    else prescan (i + 1) first
  in
  prescan s.pos true;
  (* First block: bound to the implicit entry label. *)
  let first = ident s in
  expect s colon;
  Hashtbl.replace fs.labels first (Builder.entry_label fs.fb);
  let parse_block_body () =
    while not (instr globals fs s) do
      ()
    done
  in
  parse_block_body ();
  while kind s <> rbrace do
    let label = ident s in
    expect s colon;
    Builder.set_block fs.fb (lookup_label fs label);
    parse_block_body ()
  done;
  expect s rbrace

let effect s =
  let i = ident_tok s in
  if word s i "pure" then Extern.Pure
  else if word s i "writes_all" then Extern.Writes_anything
  else if word s i "writes" then begin
    expect s lparen;
    let args = comma_list s (fun () -> int_lit s) in
    expect s rparen;
    Extern.Writes_args args
  end
  else fail s "unknown effect %s" (show s i)

let program_of_string src =
  let s = lex src in
  let b = Builder.create () in
  let globals = Hashtbl.create 16 in
  let finished = ref false in
  while not !finished do
    let i = next s in
    if kind_at s i = eof then finished := true
    else if word s i "global" then begin
      let name = ident s in
      Hashtbl.replace globals name (Builder.global b ?size:(size s) name)
    end
    else if word s i "extern" then begin
      let name = ident s in
      Builder.declare_extern b name (effect s)
    end
    else if word s i "func" then begin
      let name = ident s in
      expect s lparen;
      let params = if kind s = rparen then [] else comma_list s (fun () -> reg s) in
      expect s rparen;
      expect s lbrace;
      Builder.func b name ~nparams:(List.length params) (fun fb _params ->
          let fs = { fb; locals = Hashtbl.create 16; labels = Hashtbl.create 16 } in
          func_body globals fs s)
    end
    else fail s "expected declaration, got %s" (show s i)
  done;
  Builder.finish b
