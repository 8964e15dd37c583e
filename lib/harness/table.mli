(** Plain-text table rendering for the experiment reports. *)

val render : header:string list -> string list list -> string
(** Aligned columns, pipe-separated, with a rule under the header. *)

val rows_json : ('a -> (string * Ipds_obs.Json.t) list) -> 'a list -> Ipds_obs.Json.t
(** A report's rows as a JSON list with one object per row, its fields
    in the order given. *)

val pct : float -> string
(** [pct 0.493] is ["49.3%"]. *)

val f1 : float -> string
(** One decimal. *)

val f2 : float -> string
