(** Whole-program flow-insensitive points-to analysis.

    Pointer values originate only from [Addr_of] (the machine's value model
    carries provenance, so integer arithmetic can never forge a pointer —
    see [Ipds_machine.Value]).  Pointers propagate through moves, pointer
    arithmetic, stores/loads (via a program-wide escape set) and calls
    (conservatively unknown).  This mirrors the "publicly available pointer
    analysis pass for SUIF" [27] the paper plugs in, adapted to MIR. *)

type t

val compute : Ipds_mir.Program.t -> t

val reg : t -> fname:string -> Ipds_mir.Reg.t -> Pt_set.t
(** Flow-insensitive points-to set of a register in a function. *)

val escaped : t -> Pt_set.t
(** Pointer values that may be stored in memory somewhere in the
    program (what a load may hand back as a pointer). *)

val address_taken : t -> Ipds_mir.Var.Set.t
(** Variables whose address is ever taken; the possible targets of an
    unknown dereference. *)

val func_fingerprint : Buffer.t -> t -> fname:string -> unit
(** Appends the slice of the solution observable from one function,
    rendered as text: its register points-to sets, the program-wide escape
    set and the address-taken set.  Part of the preimage of the
    per-function content digest that keys the incremental artifact
    cache. *)
