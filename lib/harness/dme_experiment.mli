(** The DME-baseline experiment: layout-diversified replicas as a
    detector, reported Fig-7-style next to IPDS.

    Each attempt is {!Attack_experiment.attempt} in the memory universe
    (the workload's own vulnerability class), benign pass and IPDS
    checker included.  Every injected tamper is then replayed
    {e physically}, at the tampered cell's absolute address, in the
    decorrelated variant ({!Ipds_baseline.Dme.decorrelate}).  DME flags
    the attack when the two tampered variants disagree on canonical
    behaviour ({!Ipds_baseline.Dme.diverged}).

    Reported per workload: DME coverage and IPDS detection over the
    same injected attacks, DME false positives over held-out benign
    variant pairs (zero by construction — benign runs are
    layout-oblivious), and DME's replica cost (the variant pair's step
    total over the single-run baseline, 2.00 by construction: a step
    ratio, not a wall-clock measurement).

    Campaigns draw sequentially from one [(seed, workload-name)]-salted
    RNG, so {!run_all}'s workload-level pool fan-out is deterministic
    for any job count. *)

type row = {
  workload : string;
  attacks : int;  (** attempts with an actual injection in the original *)
  cf_changed : int;
  dme_detected : int;
  ipds_detected : int;
  benign_diffs : int;  (** DME false positives over the holdout *)
  holdout : int;
  overhead : float;  (** mean (steps_A + steps_B) / steps_A, benign *)
}

val run : ?attacks:int -> ?holdout:int -> ?seed:int -> Ipds_workloads.Workloads.t -> row
(** Test seam: test_baseline runs one workload's row. *)

val run_all :
  ?attacks:int ->
  ?holdout:int ->
  ?seed:int ->
  ?pool:Ipds_parallel.Pool.t ->
  unit ->
  row list
(** {!run} on every workload, fanned out over [pool] (none: sequential). *)

val render : row list -> string
