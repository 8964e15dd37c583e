(** MiniC tokens and lexer. *)

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
  | ASSIGN  (** = *)
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

val tokens : string -> token array * int array
(** Tokens and the line each starts on, in two arrays of one length;
    the slots after the final [EOF] hold [EOF] too.  Comments are
    [// …] and [/* … */]. *)

val describe : token -> string
