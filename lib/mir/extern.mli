(** Effect summaries for external (library) functions.

    The paper handles standard C library calls by exact semantics knowledge
    ("strcmp will not change any non-local memory state; scanf will only
    modify dereferenced objects of the second parameter and following") and
    treats unknown library code as clobbering everything reachable through
    pointer arguments.  We model the same three-way classification. *)

type summary =
  | Pure  (** modifies no caller-visible memory (e.g. strcmp, strlen) *)
  | Writes_args of int list
      (** modifies only memory reachable through the pointer arguments at
          the given zero-based positions (e.g. scanf, strcpy) *)
  | Writes_anything
      (** may modify any memory-resident variable (unknown library code) *)

val default_table : (string * summary) list
(** Summaries for the MiniC runtime / libc-like externals used by the
    workloads. *)

val lookup : (string * summary) list -> string -> summary
(** [lookup table name] is [name]'s summary, defaulting to
    [Writes_anything] for unknown functions, matching the paper's
    conservative treatment of library code without source. *)
