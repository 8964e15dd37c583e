(** MiniC abstract syntax back to concrete syntax.

    The output is deliberately conservative — every compound expression
    is parenthesized — so the result of [program] always re-parses with
    the MiniC parser to the same tree modulo redundant
    grouping.  The generator ({!Gen}) goes through this printer rather
    than handing an AST straight to the lowering passes: each generated
    program then exercises the whole front end (lexer, parser, scope
    checks) exactly like the hand-written workload sources do. *)

val program : Ipds_minic.Ast.program -> string
(** Render a full translation unit (globals, then functions). *)
