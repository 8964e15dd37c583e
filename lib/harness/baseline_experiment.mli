(** Head-to-head with the classic detector the paper motivates against:
    an N-gram model over system-call (extern-call) traces.

    For each server: train the model on benign sessions, measure its
    false-positive rate on held-out benign sessions, then run the
    memory-universe attempts of {!Attack_experiment.attempt} from one
    [(seed, workload-name)]-salted RNG, with the N-gram model scoring
    the syscall trace of each attacked run IPDS checks.  IPDS's selling
    points — zero false positives by construction, and detection of
    attacks whose damage never reaches the syscall pattern — show up as
    the two right-hand columns. *)

type row = {
  workload : string;
  ngram_fp : float;  (** fraction of held-out benign runs flagged *)
  ngram_detected : int;  (** of [attacks] tamperings *)
  ipds_detected : int;
  cf_changed : int;
  attacks : int;
}

val run :
  ?n:int ->
  ?train_runs:int ->
  ?holdout_runs:int ->
  ?attacks:int ->
  ?seed:int ->
  Ipds_workloads.Workloads.t ->
  row
(** Test seam: test_baseline and test_harness run one workload's rows.
    Defaults: 3-grams, 40 training runs, 50 held-out runs, 100 attacks. *)

val run_all :
  ?n:int ->
  ?train_runs:int ->
  ?holdout_runs:int ->
  ?attacks:int ->
  ?seed:int ->
  ?pool:Ipds_parallel.Pool.t ->
  unit ->
  row list
(** {!run} on every workload, fanned out over [pool] (none: sequential). *)

val render : row list -> string
val to_json : row list -> Ipds_obs.Json.t
