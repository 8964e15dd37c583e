(** Facade: compile MiniC source text to a validated MIR program. *)

exception Error of string
(** Wraps lexer, parser and codegen failures with a description. *)

val compile : string -> Ipds_mir.Program.t
