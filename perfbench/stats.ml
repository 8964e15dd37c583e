(* Summary statistics for the benchmark's reports.

   Percentiles use the nearest-rank rule on sorted samples, and a
   percentile is only reported when at least [min_beyond] samples lie
   strictly above its rank: a p90 over 15 samples is one sample, not a
   percentile.  Every ratio is printed together with its base. *)

let min_beyond = 10

let sorted_copy a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of percentile [p] (0 < p <= 1) among [n]. *)
let rank n p = max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

let beyond n p = n - rank n p

let reportable n p = n > 0 && beyond n p >= min_beyond

(* Nearest-rank percentile of already-sorted samples; [None] when the
   rule above does not allow reporting it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if reportable n p then Some sorted.(rank n p - 1) else None

(* The highest of [candidates] (ascending) the sample count supports. *)
let highest_reportable n candidates =
  List.fold_left (fun acc p -> if reportable n p then Some p else acc) None candidates

let median sorted =
  let n = Array.length sorted in
  if n = 0 then nan
  else if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.

(* A ratio rendered with the counts it is made of, e.g.
   "0.7200 (18/25 loads)". *)
type ratio = { num : float; den : float; base : string }

let ratio ~num ~den ~base = { num; den; base }
let ratio_value r = if r.den = 0. then 0. else r.num /. r.den

let fmt_count x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.4g" x

let ratio_to_string r =
  Printf.sprintf "%.4f (%s/%s %s)" (ratio_value r) (fmt_count r.num)
    (fmt_count r.den) r.base

(* CPU cost per operation of a workload: the benchmark process and the
   server child both count — in the serve workloads most of the
   server-side work happens in the child. *)
let cpu_us_per_op ~self_s ~child_s ~ops =
  if ops <= 0 then nan else (self_s +. child_s) *. 1e6 /. float_of_int ops
