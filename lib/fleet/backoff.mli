(** The fixed retry schedule of ring failover: 20 ms before the second
    attempt, doubling per attempt, capped at 250 ms per sleep and at 8
    attempts, so failover against a dead fleet terminates within
    {!total_bound} seconds of sleeping. *)

val delay : int -> float
(** Sleep before retry [attempt] (0-based). *)

val max_attempts : int
(** 8. *)

val total_bound : unit -> float
(** Sum of all possible delays — the worst-case total sleep. *)
