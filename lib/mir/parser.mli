(** Parser for the textual MIR format emitted by {!Printer}.

    Grammar (comments run from ['#'] to end of line):
    {v
    program  ::= decl*
    decl     ::= "global" ident size?
               | "extern" ident effect
               | "func" ident "(" regs? ")" "{" vardecl* block+ "}"
    effect   ::= "pure" | "writes" "(" int ("," int)* ")" | "writes_all"
    size     ::= "[" int "]"
    vardecl  ::= "var" ident size?
    block    ::= ident ":" instr* term
    instr    ::= reg "=" int | reg "=" reg | reg "=" binop opnd "," opnd
               | reg "=" "load" addr | "store" addr "," opnd
               | reg "=" "addr" ident "[" opnd "]"
               | reg? "=?" "call" ident "(" opnds? ")"
               | reg "=" "input" int | "output" opnd | "nop"
    term     ::= "jmp" ident | "br" cmp reg "," opnd "," ident "," ident
               | "ret" opnd? | "halt"
    addr     ::= ident | ident "[" opnd "]" | "[" reg "]"
    v} *)

exception Parse_error of string
(** Carries a ["line N: message"] description.  An integer literal
    outside [[min_int, max_int]] is one: ["line N: integer literal out
    of range"]. *)

val program_of_string : string -> Program.t
(** Raises {!Parse_error} on malformed input and [Invalid_argument] when
    the parsed program fails validation. *)
