module L = Lexer

exception Error of string

type stream = {
  toks : L.token array;
  lines : int array;
  mutable pos : int;
}

let peek s = s.toks.(s.pos)
let peek2 s = if s.pos + 1 < Array.length s.toks then s.toks.(s.pos + 1) else L.EOF
let line s = s.lines.(s.pos)

let fail s fmt =
  Printf.ksprintf (fun m -> raise (Error (Printf.sprintf "line %d: %s" (line s) m))) fmt

let next s =
  let t = peek s in
  if t <> L.EOF then s.pos <- s.pos + 1;
  t

let expect s t =
  let got = next s in
  if got <> t then fail s "expected %s, got %s" (L.describe t) (L.describe got)

let ident s =
  match next s with
  | L.IDENT name -> name
  | t -> fail s "expected identifier, got %s" (L.describe t)

(* ---------- expressions ---------- *)

let rec primary s =
  match next s with
  | L.INT n -> Ast.Int_lit n
  | L.MINUS -> Ast.Unary (Ast.Neg, primary s)
  | L.BANG -> Ast.Unary (Ast.Not, primary s)
  | L.STAR -> Ast.Unary (Ast.Deref, primary s)
  | L.LPAREN ->
      let e = expr s in
      expect s L.RPAREN;
      e
  | L.KW_INPUT ->
      expect s L.LPAREN;
      let ch =
        match next s with
        | L.INT n -> n
        | t -> fail s "input channel must be a literal, got %s" (L.describe t)
      in
      expect s L.RPAREN;
      Ast.Input ch
  | L.AMP -> (
      let name = ident s in
      match peek s with
      | L.LBRACKET ->
          expect s L.LBRACKET;
          let e = expr s in
          expect s L.RBRACKET;
          Ast.Addr_of (name, Some e)
      | _ -> Ast.Addr_of (name, None))
  | L.IDENT name -> (
      match peek s with
      | L.LBRACKET ->
          expect s L.LBRACKET;
          let e = expr s in
          expect s L.RBRACKET;
          Ast.Index (name, e)
      | L.LPAREN ->
          expect s L.LPAREN;
          let args = ref [] in
          if peek s <> L.RPAREN then begin
            args := [ expr s ];
            while peek s = L.COMMA do
              expect s L.COMMA;
              args := expr s :: !args
            done
          end;
          expect s L.RPAREN;
          Ast.Call (name, List.rev !args)
      | _ -> Ast.Var name)
  | t -> fail s "expected expression, got %s" (L.describe t)

(* Precedence-climbing over binary operators. *)
and binary s min_prec =
  let prec = function
    | L.STAR | L.SLASH | L.PERCENT -> Some 10
    | L.PLUS | L.MINUS -> Some 9
    | L.SHL | L.SHR -> Some 8
    | L.LT | L.LE | L.GT | L.GE -> Some 7
    | L.EQ | L.NE -> Some 6
    | L.AMP -> Some 5
    | L.CARET -> Some 4
    | L.PIPE -> Some 3
    | L.ANDAND -> Some 2
    | L.OROR -> Some 1
    | _ -> None
  in
  let op_of = function
    | L.STAR -> Ast.Arith Ipds_mir.Binop.Mul
    | L.SLASH -> Ast.Arith Ipds_mir.Binop.Div
    | L.PERCENT -> Ast.Arith Ipds_mir.Binop.Rem
    | L.PLUS -> Ast.Arith Ipds_mir.Binop.Add
    | L.MINUS -> Ast.Arith Ipds_mir.Binop.Sub
    | L.SHL -> Ast.Arith Ipds_mir.Binop.Shl
    | L.SHR -> Ast.Arith Ipds_mir.Binop.Shr
    | L.AMP -> Ast.Arith Ipds_mir.Binop.And
    | L.CARET -> Ast.Arith Ipds_mir.Binop.Xor
    | L.PIPE -> Ast.Arith Ipds_mir.Binop.Or
    | L.LT -> Ast.Cmp Ipds_mir.Cmp.Lt
    | L.LE -> Ast.Cmp Ipds_mir.Cmp.Le
    | L.GT -> Ast.Cmp Ipds_mir.Cmp.Gt
    | L.GE -> Ast.Cmp Ipds_mir.Cmp.Ge
    | L.EQ -> Ast.Cmp Ipds_mir.Cmp.Eq
    | L.NE -> Ast.Cmp Ipds_mir.Cmp.Ne
    | L.ANDAND -> Ast.And
    | L.OROR -> Ast.Or
    | _ -> assert false
  in
  let lhs = ref (primary s) in
  let continue = ref true in
  while !continue do
    match prec (peek s) with
    | Some p when p >= min_prec ->
        let tok = next s in
        let rhs = binary s (p + 1) in
        lhs := Ast.Binary (op_of tok, !lhs, rhs)
    | Some _ | None -> continue := false
  done;
  !lhs

and expr s = binary s 1

(* ---------- statements ---------- *)

let lvalue_of_expr s = function
  | Ast.Var name -> Ast.Lvar name
  | Ast.Index (name, e) -> Ast.Lindex (name, e)
  | Ast.Unary (Ast.Deref, e) -> Ast.Lderef e
  | Ast.Int_lit _ | Ast.Addr_of _ | Ast.Unary _ | Ast.Binary _ | Ast.Call _
  | Ast.Input _ ->
      fail s "invalid assignment target"

let rec simple_stmt s =
  (* assignment or expression statement, without the trailing ';' *)
  let e = expr s in
  if peek s = L.ASSIGN then begin
    expect s L.ASSIGN;
    let rhs = expr s in
    Ast.Assign (lvalue_of_expr s e, rhs)
  end
  else Ast.Expr e

and stmt s =
  match peek s with
  | L.KW_IF ->
      expect s L.KW_IF;
      expect s L.LPAREN;
      let c = expr s in
      expect s L.RPAREN;
      let then_b = block s in
      let else_b =
        if peek s = L.KW_ELSE then begin
          expect s L.KW_ELSE;
          if peek s = L.KW_IF then [ stmt s ] else block s
        end
        else []
      in
      Ast.If (c, then_b, else_b)
  | L.KW_WHILE ->
      expect s L.KW_WHILE;
      expect s L.LPAREN;
      let c = expr s in
      expect s L.RPAREN;
      Ast.While (c, block s)
  | L.KW_FOR ->
      expect s L.KW_FOR;
      expect s L.LPAREN;
      let init = if peek s = L.SEMI then None else Some (simple_stmt s) in
      expect s L.SEMI;
      let cond = if peek s = L.SEMI then None else Some (expr s) in
      expect s L.SEMI;
      let step = if peek s = L.RPAREN then None else Some (simple_stmt s) in
      expect s L.RPAREN;
      Ast.For (init, cond, step, block s)
  | L.KW_RETURN ->
      expect s L.KW_RETURN;
      let e = if peek s = L.SEMI then None else Some (expr s) in
      expect s L.SEMI;
      Ast.Return e
  | L.KW_OUTPUT ->
      expect s L.KW_OUTPUT;
      expect s L.LPAREN;
      let e = expr s in
      expect s L.RPAREN;
      expect s L.SEMI;
      Ast.Output e
  | L.KW_BREAK ->
      expect s L.KW_BREAK;
      expect s L.SEMI;
      Ast.Break
  | L.KW_CONTINUE ->
      expect s L.KW_CONTINUE;
      expect s L.SEMI;
      Ast.Continue
  | _ ->
      let st = simple_stmt s in
      expect s L.SEMI;
      st

and block s =
  expect s L.LBRACE;
  let stmts = ref [] in
  while peek s <> L.RBRACE do
    stmts := stmt s :: !stmts
  done;
  expect s L.RBRACE;
  List.rev !stmts

(* ---------- declarations ---------- *)

let decl_after_int s =
  (* after "int", possibly "*", then name and optional size *)
  if peek s = L.STAR then ignore (next s);
  let name = ident s in
  let size =
    if peek s = L.LBRACKET then begin
      expect s L.LBRACKET;
      let n =
        match next s with
        | L.INT n when n >= 1 -> n
        | t -> fail s "array size must be a positive literal, got %s" (L.describe t)
      in
      expect s L.RBRACKET;
      Some n
    end
    else None
  in
  { Ast.d_name = name; d_size = size }

let parse src =
  let s =
    match L.tokens src with
    | toks, lines -> { toks; lines; pos = 0 }
    | exception L.Error m -> raise (Error m)
  in
  let globals = ref [] in
  let funcs = ref [] in
  while peek s <> L.EOF do
    expect s L.KW_INT;
    if peek s = L.STAR || peek2 s <> L.LPAREN then begin
      (* global variable *)
      let d = decl_after_int s in
      expect s L.SEMI;
      globals := d :: !globals
    end
    else begin
      let f_name = ident s in
      expect s L.LPAREN;
      let params = ref [] in
      if peek s <> L.RPAREN then begin
        let param () =
          expect s L.KW_INT;
          if peek s = L.STAR then ignore (next s);
          ident s
        in
        params := [ param () ];
        while peek s = L.COMMA do
          expect s L.COMMA;
          params := param () :: !params
        done
      end;
      expect s L.RPAREN;
      expect s L.LBRACE;
      let locals = ref [] in
      while peek s = L.KW_INT do
        expect s L.KW_INT;
        let d = decl_after_int s in
        expect s L.SEMI;
        locals := d :: !locals
      done;
      let body = ref [] in
      while peek s <> L.RBRACE do
        body := stmt s :: !body
      done;
      expect s L.RBRACE;
      funcs :=
        {
          Ast.f_name;
          f_params = List.rev !params;
          f_locals = List.rev !locals;
          f_body = List.rev !body;
        }
        :: !funcs
    end
  done;
  (* the arrays are in the major heap once past 256 words: drop their
     young tokens so the next minor collection does not promote them *)
  Array.fill s.toks 0 (Array.length s.toks) L.EOF;
  { Ast.p_globals = List.rev !globals; p_funcs = List.rev !funcs }
