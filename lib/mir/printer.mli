(** Textual rendering of MIR, parseable back by {!Parser}: the one
    text writer for MIR.  The artifact code section stores this text
    and every function digest hashes it, so its bytes are part of the
    artifact format. *)

val program_to_string : Program.t -> string
val func_to_string : Func.t -> string
