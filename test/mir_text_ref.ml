(* The Format-based MIR printer and the tuple-list parser as they were
   before [Ipds_mir.Printer] became one Buffer writer and
   [Ipds_mir.Parser] lexed into token arrays, kept as the reference the
   library is checked against in test_mir.  Not used by any library. *)

open Ipds_mir

(* ---------- printer ---------- *)

module Pp = struct
  let reg ppf t = Format.fprintf ppf "r%d" (Reg.index t)

  let operand ppf = function
    | Operand.Reg r -> reg ppf r
    | Operand.Imm n -> Format.fprintf ppf "%d" n

  let var ppf (t : Var.t) =
    if t.size = 1 then Format.fprintf ppf "%s" t.name
    else Format.fprintf ppf "%s[%d]" t.name t.size

  let addr ppf = function
    | Addr.Direct v -> Format.fprintf ppf "%s" v.Var.name
    | Addr.Index (v, i) -> Format.fprintf ppf "%s[%a]" v.Var.name operand i
    | Addr.Indirect r -> Format.fprintf ppf "[%a]" reg r

  let binop ppf t = Format.pp_print_string ppf (Binop.to_string t)
  let cmp ppf t = Format.pp_print_string ppf (Cmp.to_string t)

  let op ppf = function
    | Op.Const (r, n) -> Format.fprintf ppf "%a = %d" reg r n
    | Op.Move (r, o) -> Format.fprintf ppf "%a = %a" reg r operand o
    | Op.Binop (r, op, a, b) ->
        Format.fprintf ppf "%a = %a %a, %a" reg r binop op operand a
          operand b
    | Op.Load (r, a) -> Format.fprintf ppf "%a = load %a" reg r addr a
    | Op.Store (a, o) -> Format.fprintf ppf "store %a, %a" addr a operand o
    | Op.Addr_of (r, v, i) ->
        Format.fprintf ppf "%a = addr %s[%a]" reg r v.Var.name operand i
    | Op.Call { dst; callee; args } ->
        let pp_args =
          Format.pp_print_list
            ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
            operand
        in
        (match dst with
        | Some r -> Format.fprintf ppf "%a = call %s(%a)" reg r callee pp_args args
        | None -> Format.fprintf ppf "call %s(%a)" callee pp_args args)
    | Op.Input (r, ch) -> Format.fprintf ppf "%a = input %d" reg r ch
    | Op.Output o -> Format.fprintf ppf "output %a" operand o
    | Op.Nop -> Format.pp_print_string ppf "nop"

  let instr ppf (t : Instr.t) = op ppf t.op

  let terminator ~labels ppf = function
    | Terminator.Jump b -> Format.fprintf ppf "jmp %s" (labels b)
    | Terminator.Branch { cmp = c; lhs; rhs; if_true; if_false } ->
        Format.fprintf ppf "br %a %a, %a, %s, %s" cmp c reg lhs
          operand rhs (labels if_true) (labels if_false)
    | Terminator.Return None -> Format.pp_print_string ppf "ret"
    | Terminator.Return (Some o) -> Format.fprintf ppf "ret %a" operand o
    | Terminator.Halt -> Format.pp_print_string ppf "halt"

  let block ~labels ppf (t : Block.t) =
    Format.fprintf ppf "@[<v 2>%s:" t.label;
    Array.iter (fun i -> Format.fprintf ppf "@,%a" instr i) t.body;
    Format.fprintf ppf "@,%a@]" (terminator ~labels) t.term

  let extern ppf = function
    | Extern.Pure -> Format.pp_print_string ppf "pure"
    | Extern.Writes_args args ->
        Format.fprintf ppf "writes(%a)"
          Format.(pp_print_list ~pp_sep:(fun f () -> pp_print_string f ",") pp_print_int)
          args
    | Extern.Writes_anything -> Format.pp_print_string ppf "writes_all"

  let func ppf (t : Func.t) =
    let labels idx = Func.label_of_block t idx in
    let pp_params =
      Format.pp_print_list
        ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
        reg
    in
    Format.fprintf ppf "@[<v 1>func %s(%a) {" t.name pp_params t.params;
    List.iter (fun v -> Format.fprintf ppf "@, var %a" var v) t.locals;
    Array.iter (fun b -> Format.fprintf ppf "@,%a" (block ~labels) b) t.blocks;
    Format.fprintf ppf "@]@,}"

  let program ppf (t : Program.t) =
    Format.fprintf ppf "@[<v>";
    List.iter (fun v -> Format.fprintf ppf "global %a@," var v) t.globals;
    List.iter
      (fun (name, s) -> Format.fprintf ppf "extern %s %a@," name extern s)
      t.externs;
    Format.pp_print_list
      ~pp_sep:(fun f () -> Format.fprintf f "@,@,")
      func ppf t.funcs;
    Format.fprintf ppf "@]"
end

let program_to_string p = Format.asprintf "%a@." Pp.program p
let func_to_string f = Format.asprintf "%a@." Pp.func f

(* ---------- parser ---------- *)

exception Parse_error of string

type token =
  | IDENT of string
  | INT of int
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | LBRACE
  | RBRACE
  | COMMA
  | COLON
  | EQUALS
  | EOF

let pp_token = function
  | IDENT s -> s
  | INT n -> string_of_int n
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | COMMA -> ","
  | COLON -> ":"
  | EQUALS -> "="
  | EOF -> "<eof>"

(* ---------- Lexer ---------- *)

let lex src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push t = toks := (t, !line) :: !toks in
  let is_ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  let is_digit c = c >= '0' && c <= '9' in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '#' then
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    else if is_digit c || (c = '-' && !i + 1 < n && is_digit src.[!i + 1]) then begin
      let start = !i in
      if c = '-' then incr i;
      while !i < n && is_digit src.[!i] do
        incr i
      done;
      push (INT (int_of_string (String.sub src start (!i - start))))
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      push (IDENT (String.sub src start (!i - start)))
    end
    else begin
      (match c with
      | '(' -> push LPAREN
      | ')' -> push RPAREN
      | '[' -> push LBRACKET
      | ']' -> push RBRACKET
      | '{' -> push LBRACE
      | '}' -> push RBRACE
      | ',' -> push COMMA
      | ':' -> push COLON
      | '=' -> push EQUALS
      | _ -> raise (Parse_error (Printf.sprintf "line %d: bad character %c" !line c)));
      incr i
    end
  done;
  push EOF;
  Array.of_list (List.rev !toks)

(* ---------- Token stream ---------- *)

type stream = {
  toks : (token * int) array;
  mutable pos : int;
}

let peek s = fst s.toks.(s.pos)
let peek2 s = if s.pos + 1 < Array.length s.toks then fst s.toks.(s.pos + 1) else EOF
let cur_line s = snd s.toks.(s.pos)

let fail s fmt =
  Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "line %d: %s" (cur_line s) m))) fmt

let next s =
  let t = peek s in
  if t <> EOF then s.pos <- s.pos + 1;
  t

let expect s t =
  let got = next s in
  if got <> t then
    raise
      (Parse_error
         (Printf.sprintf "line %d: expected %s, got %s"
            (snd s.toks.(s.pos - 1))
            (pp_token t) (pp_token got)))

let ident s =
  match next s with
  | IDENT name -> name
  | t -> fail s "expected identifier, got %s" (pp_token t)

let int_lit s =
  match next s with
  | INT n -> n
  | t -> fail s "expected integer, got %s" (pp_token t)

let reg_of_ident name =
  let len = String.length name in
  if len >= 2 && name.[0] = 'r' then
    match int_of_string_opt (String.sub name 1 (len - 1)) with
    | Some n when n >= 0 -> Some (Reg.make n)
    | Some _ | None -> None
  else None

let reg s =
  match next s with
  | IDENT name -> (
      match reg_of_ident name with
      | Some r -> r
      | None -> fail s "expected register, got %s" name)
  | t -> fail s "expected register, got %s" (pp_token t)

(* ---------- Parser proper ---------- *)

type fstate = {
  fb : Builder.fb;
  locals : (string, Var.t) Hashtbl.t;
  labels : (string, Builder.label) Hashtbl.t;
}

let touch_reg fs r = Builder.reserve_regs fs.fb (Reg.index r + 1)

let operand fs s =
  match next s with
  | INT n -> Operand.imm n
  | IDENT name -> (
      match reg_of_ident name with
      | Some r ->
          touch_reg fs r;
          Operand.reg r
      | None -> fail s "expected operand, got %s" name)
  | t -> fail s "expected operand, got %s" (pp_token t)

let find_var globals fs s name =
  match Hashtbl.find_opt fs.locals name with
  | Some v -> v
  | None -> (
      match Hashtbl.find_opt globals name with
      | Some v -> v
      | None -> fail s "unknown variable %s" name)

let addr globals fs s =
  match peek s with
  | LBRACKET ->
      expect s LBRACKET;
      let r = reg s in
      touch_reg fs r;
      expect s RBRACKET;
      Addr.Indirect r
  | IDENT name ->
      ignore (next s);
      let v = find_var globals fs s name in
      if peek s = LBRACKET then begin
        expect s LBRACKET;
        let idx = operand fs s in
        expect s RBRACKET;
        Addr.Index (v, idx)
      end
      else Addr.Direct v
  | t -> fail s "expected address, got %s" (pp_token t)

let call_args fs s =
  expect s LPAREN;
  if peek s = RPAREN then begin
    expect s RPAREN;
    []
  end
  else begin
    let args = ref [ operand fs s ] in
    while peek s = COMMA do
      expect s COMMA;
      args := operand fs s :: !args
    done;
    expect s RPAREN;
    List.rev !args
  end

let lookup_label fs name =
  match Hashtbl.find_opt fs.labels name with
  | Some l -> l
  | None ->
      let l = Builder.new_label fs.fb name in
      Hashtbl.add fs.labels name l;
      l

(* Parses one instruction or terminator.  Returns [true] when the block was
   terminated. *)
let instr globals fs s =
  let fb = fs.fb in
  match next s with
  | IDENT "store" ->
      let a = addr globals fs s in
      expect s COMMA;
      let o = operand fs s in
      Builder.emit fb (Op.Store (a, o));
      false
  | IDENT "output" ->
      let o = operand fs s in
      Builder.emit fb (Op.Output o);
      false
  | IDENT "nop" ->
      Builder.emit fb Op.Nop;
      false
  | IDENT "call" ->
      let callee = ident s in
      let args = call_args fs s in
      Builder.emit fb (Op.Call { dst = None; callee; args });
      false
  | IDENT "jmp" ->
      Builder.jump fb (lookup_label fs (ident s));
      true
  | IDENT "br" ->
      let c =
        match Cmp.of_string (ident s) with
        | Some c -> c
        | None -> fail s "bad comparison"
      in
      let lhs = reg s in
      touch_reg fs lhs;
      expect s COMMA;
      let rhs = operand fs s in
      expect s COMMA;
      let if_true = lookup_label fs (ident s) in
      expect s COMMA;
      let if_false = lookup_label fs (ident s) in
      Builder.branch fb c lhs rhs if_true if_false;
      true
  | IDENT "ret" ->
      let o =
        match peek s with
        | INT _ -> Some (operand fs s)
        | IDENT name when reg_of_ident name <> None -> Some (operand fs s)
        | IDENT _ | LPAREN | RPAREN | LBRACKET | RBRACKET | LBRACE | RBRACE
        | COMMA | COLON | EQUALS | EOF ->
            None
      in
      Builder.ret fb o;
      true
  | IDENT "halt" ->
      Builder.halt fb;
      true
  | IDENT name -> (
      match reg_of_ident name with
      | None -> fail s "unexpected %s" name
      | Some r -> (
          touch_reg fs r;
          expect s EQUALS;
          match next s with
          | INT n ->
              Builder.emit fb (Op.Const (r, n));
              false
          | IDENT "load" ->
              Builder.emit fb (Op.Load (r, addr globals fs s));
              false
          | IDENT "addr" ->
              let v = find_var globals fs s (ident s) in
              expect s LBRACKET;
              let idx = operand fs s in
              expect s RBRACKET;
              Builder.emit fb (Op.Addr_of (r, v, idx));
              false
          | IDENT "call" ->
              let callee = ident s in
              let args = call_args fs s in
              Builder.emit fb (Op.Call { dst = Some r; callee; args });
              false
          | IDENT "input" ->
              Builder.emit fb (Op.Input (r, int_lit s));
              false
          | IDENT rhs -> (
              match reg_of_ident rhs with
              | Some src ->
                  touch_reg fs src;
                  Builder.emit fb (Op.Move (r, Operand.reg src));
                  false
              | None -> (
                  match Binop.of_string rhs with
                  | Some op ->
                      let a = operand fs s in
                      expect s COMMA;
                      let b = operand fs s in
                      Builder.emit fb (Op.Binop (r, op, a, b));
                      false
                  | None -> fail s "unknown instruction %s" rhs))
          | t -> fail s "bad right-hand side %s" (pp_token t)))
  | t -> fail s "unexpected %s" (pp_token t)

let func_body globals fs s =
  (* Leading "var" declarations. *)
  let continue_vars = ref true in
  while !continue_vars do
    match peek s with
    | IDENT "var" when peek2 s <> COLON ->
        ignore (next s);
        let name = ident s in
        let size =
          if peek s = LBRACKET then begin
            expect s LBRACKET;
            let n = int_lit s in
            expect s RBRACKET;
            Some n
          end
          else None
        in
        Hashtbl.replace fs.locals name (Builder.local fs.fb ?size name)
    | IDENT _ | INT _ | LPAREN | RPAREN | LBRACKET | RBRACKET | LBRACE | RBRACE
    | COMMA | COLON | EQUALS | EOF ->
        continue_vars := false
  done;
  (* Pre-scan the body for label definitions (IDENT ':') so block indices
     follow definition order, keeping print/parse round trips stable. *)
  let rec prescan i first =
    match fst s.toks.(i) with
    | RBRACE | EOF -> ()
    | IDENT name when i + 1 < Array.length s.toks && fst s.toks.(i + 1) = COLON ->
        if first then
          Hashtbl.replace fs.labels name (Builder.entry_label fs.fb)
        else if not (Hashtbl.mem fs.labels name) then
          Hashtbl.replace fs.labels name (Builder.new_label fs.fb name);
        prescan (i + 2) false
    | IDENT _ | INT _ | LPAREN | RPAREN | LBRACKET | RBRACKET | LBRACE | COMMA
    | COLON | EQUALS ->
        prescan (i + 1) first
  in
  prescan s.pos true;
  (* First block: bound to the implicit entry label. *)
  let first = ident s in
  expect s COLON;
  Hashtbl.replace fs.labels first (Builder.entry_label fs.fb);
  let parse_block_body () =
    let terminated = ref false in
    while not !terminated do
      terminated := instr globals fs s
    done
  in
  parse_block_body ();
  while peek s <> RBRACE do
    let name = ident s in
    expect s COLON;
    Builder.set_block fs.fb (lookup_label fs name);
    parse_block_body ()
  done;
  expect s RBRACE

let effect s =
  match ident s with
  | "pure" -> Extern.Pure
  | "writes_all" -> Extern.Writes_anything
  | "writes" ->
      expect s LPAREN;
      let args = ref [ int_lit s ] in
      while peek s = COMMA do
        expect s COMMA;
        args := int_lit s :: !args
      done;
      expect s RPAREN;
      Extern.Writes_args (List.rev !args)
  | e -> fail s "unknown effect %s" e

let program_of_string src =
  let s = { toks = lex src; pos = 0 } in
  let b = Builder.create () in
  let globals = Hashtbl.create 16 in
  let finished = ref false in
  while not !finished do
    match next s with
    | EOF -> finished := true
    | IDENT "global" ->
        let name = ident s in
        let size =
          if peek s = LBRACKET then begin
            expect s LBRACKET;
            let n = int_lit s in
            expect s RBRACKET;
            Some n
          end
          else None
        in
        Hashtbl.replace globals name (Builder.global b ?size name)
    | IDENT "extern" ->
        let name = ident s in
        Builder.declare_extern b name (effect s)
    | IDENT "func" ->
        let name = ident s in
        expect s LPAREN;
        let nparams = ref 0 in
        if peek s <> RPAREN then begin
          let _ = reg s in
          incr nparams;
          while peek s = COMMA do
            expect s COMMA;
            let _ = reg s in
            incr nparams
          done
        end;
        expect s RPAREN;
        expect s LBRACE;
        Builder.func b name ~nparams:!nparams (fun fb _params ->
            let fs = { fb; locals = Hashtbl.create 16; labels = Hashtbl.create 16 } in
            func_body globals fs s)
    | t -> fail s "expected declaration, got %s" (pp_token t)
  done;
  Builder.finish b
