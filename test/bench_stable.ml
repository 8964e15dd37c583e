(* The stable sections of the committed BENCH_precision.json and
   BENCH_attacks.json, regenerated in memory at the configuration each
   file records (seed, attack counts, universes, population and DME
   sizes) and compared value by value with what is committed.  A change
   that moves a stable number fails here, naming the first path that
   differs, until the file is regenerated in the same commit:

     dune exec bin/ipds.exe -- bench --no-cache --attacks 100 precision
     dune exec bin/ipds.exe -- bench --no-cache --attacks 40 attacks

   Usage: bench_stable BENCH_precision.json BENCH_attacks.json *)

module H = Ipds_harness
module J = Ipds_obs.Json

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bench-stable: " ^ s);
      exit 1)
    fmt

let stable_of path =
  let j = J.of_string (In_channel.with_open_bin path In_channel.input_all) in
  match J.member "stable" j with Some s -> s | None -> fail "%s: no \"stable\" section" path

let get path k j = match J.member k j with Some v -> v | None -> fail "%s: no %S" path k
let int path k j = match get path k j with J.Int n -> n | _ -> fail "%s: %S is not an int" path k

(* The first path at which [want] and [got] differ.  Leaves compare by
   their encoding, which round-trips every float exactly. *)
let rec diff path want got =
  let fields path a b =
    let rec go = function
      | (k, x) :: a, (k', y) :: b when String.equal k k' -> (
          match diff (path ^ "." ^ k) x y with None -> go (a, b) | d -> d)
      | (k, _) :: _, _ | [], (k, _) :: _ -> Some (path ^ "." ^ k)
      | [], [] -> None
    in
    go (a, b)
  in
  let items path a b =
    let rec go i = function
      | x :: a, y :: b -> (
          match diff (Printf.sprintf "%s[%d]" path i) x y with None -> go (i + 1) (a, b) | d -> d)
      | [], [] -> None
      | _ -> Some (Printf.sprintf "%s[%d]" path i)
    in
    go 0 (a, b)
  in
  match want, got with
  | J.Obj a, J.Obj b -> fields path a b
  | J.List a, J.List b -> items path a b
  | _ -> if String.equal (J.to_string want) (J.to_string got) then None else Some path

let compare_stable path want got =
  match diff "stable" want got with
  | None -> Printf.printf "bench-stable: %s stable section matches\n" path
  | Some at -> fail "%s differs from a regenerated run first at %s" path at

let () =
  if Array.length Sys.argv <> 3 then
    fail "usage: bench_stable BENCH_precision.json BENCH_attacks.json";
  let precision_path = Sys.argv.(1) and attacks_path = Sys.argv.(2) in
  Ipds_artifact.Store.set_ambient_dir None;
  (* precision first: its refine counters are deltas over builds the
     attack campaigns would otherwise have memoised *)
  let want = stable_of precision_path in
  let got =
    H.Precision_experiment.stable_json
      (H.Precision_experiment.run ~attacks:(int precision_path "attacks" want)
         ~seed:(int precision_path "seed" want) ())
  in
  compare_stable precision_path want got;
  let want = stable_of attacks_path in
  let p = attacks_path in
  let population = get p "population" want and dme = get p "dme" want in
  let universe u =
    match get p "universe" u with
    | J.String name -> (
        match H.Attack_experiment.universe_of_name name with
        | Some u -> u
        | None -> fail "%s: unknown universe %s" p name)
    | _ -> fail "%s: a universe name is not a string" p
  in
  let config =
    {
      H.Attack_bench.universes =
        (match get p "universes" want with
        | J.List us -> List.map universe us
        | _ -> fail "%s: \"universes\" is not a list" p);
      attacks = int p "attacks_per_workload" want;
      seed = int p "seed" want;
      pop_members = int p "members" population;
      pop_attacks = int p "attacks_per_member" population;
      dme_attacks = int p "attacks_per_workload" dme;
      dme_holdout = int p "holdout" dme;
    }
  in
  compare_stable attacks_path want (H.Attack_bench.stable_json (H.Attack_bench.run ~config ()))
