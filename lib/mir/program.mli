(** Whole programs: functions, global variables and external summaries. *)

type t = {
  funcs : Func.t list;  (** in definition order *)
  globals : Var.t list;
  externs : (string * Extern.summary) list;
  main : string;
  var_count : int;  (** variable ids are [0 .. var_count - 1], program-wide *)
}

val find_func : t -> string -> Func.t option
val find_func_exn : t -> string -> Func.t
val find_var : t -> int -> Var.t option
(** Test seam: test_mir looks variables up by id.  Look a variable up by id
    across globals and every function's locals. *)

val extern_summary : t -> string -> Extern.summary
(** Summary for a callee that is not a defined function (conservative
    [Writes_anything] if undeclared). *)

val is_defined : t -> string -> bool
