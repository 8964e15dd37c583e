(* The observability layer: registry semantics (idempotent registration,
   deterministic merge across domains, stability filtering, wall-clock
   timers), manifests, the JSONL event sink, and the JSON printer and
   parser. *)

module R = Ipds_obs.Registry
module J = Ipds_obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub haystack i nn) needle || go (i + 1)) in
  go 0

(* ---------- registry ---------- *)

let test_counter_basics () =
  let c = R.counter "test.counter.basics" in
  check_int "starts at zero" 0 (R.counter_value c);
  R.incr c;
  R.add c 41;
  check_int "incr + add" 42 (R.counter_value c);
  (* registration is idempotent: the same name is the same cells *)
  let c' = R.counter "test.counter.basics" in
  R.incr c';
  check_int "same name, same counter" 43 (R.counter_value c);
  R.counter_reset c;
  check_int "reset" 0 (R.counter_value c)

let test_kind_mismatch () =
  ignore (R.counter "test.kind.mismatch");
  check "gauge over counter name rejected" true
    (match R.gauge "test.kind.mismatch" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_gauge_max () =
  let g = R.gauge "test.gauge.max" in
  R.gauge_max g 3;
  R.gauge_max g 7;
  R.gauge_max g 5;
  check_int "max wins" 7 (R.gauge_value g);
  R.gauge_max g (-2);
  check_int "clamped at zero, never lowers" 7 (R.gauge_value g)

let test_histogram_buckets () =
  let h = R.histogram "test.histogram.buckets" ~bounds:[| 1; 10; 100 |] in
  List.iter (R.observe h) [ 0; 1; 2; 10; 11; 100; 101; 5000 ];
  let v = R.histogram_value h in
  check_int "count" 8 v.R.count;
  check_int "sum" (0 + 1 + 2 + 10 + 11 + 100 + 101 + 5000) v.R.sum;
  check "bucket layout" true (v.R.counts = [| 2; 2; 2; 2 |])

let test_multi_domain_merge () =
  let c = R.counter "test.multidomain.counter" in
  let h = R.histogram "test.multidomain.hist" ~bounds:[| 8 |] in
  let g = R.gauge "test.multidomain.gauge" in
  let per_domain = 10_000 in
  let domains =
    List.init 8 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              R.incr c;
              R.observe h (i land 15);
              if i = per_domain then R.gauge_max g (d + 1)
            done))
  in
  List.iter Domain.join domains;
  check_int "counter merges to exact total" (8 * per_domain) (R.counter_value c);
  check_int "histogram count merges" (8 * per_domain) (R.histogram_value h).R.count;
  check_int "gauge merges to max" 8 (R.gauge_value g)

let test_snapshot_stability () =
  let s = R.counter "test.stability.stable" in
  let u = R.counter ~stable:false "test.stability.unstable" in
  R.incr s;
  R.incr u;
  let names stability =
    List.map fst (R.snapshot ~stability ())
    |> List.filter (fun n -> contains n "test.stability.")
  in
  check "stable filter" true (names `Stable = [ "test.stability.stable" ]);
  check "unstable filter" true (names `Unstable = [ "test.stability.unstable" ]);
  check_int "all" 2 (List.length (names `All))

let test_snapshot_json_shape () =
  let c = R.counter "test.jsonshape.counter" in
  R.add c 5;
  let s = J.to_string (R.snapshot_json ()) in
  check "counter renders as bare int" true
    (contains s "\"test.jsonshape.counter\":5")

(* ---------- timers ---------- *)

let test_spans () =
  let h = R.timer "test.timer.ns" in
  R.histogram_reset h;
  check_int "fresh timer is empty" 0 (R.histogram_value h).R.count;
  let r = R.time h (fun () -> 42) in
  check_int "passes result through" 42 r;
  (match R.time h (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected exception to propagate");
  let v = R.histogram_value h in
  check_int "both entries counted (incl. raising one)" 2 v.R.count;
  check "non-negative time" true (v.R.sum >= 0);
  check_int "every entry in a bucket" 2 (Array.fold_left ( + ) 0 v.R.counts);
  check "timer is unstable" false
    (List.mem_assoc "test.timer.ns" (R.snapshot ~stability:`Stable ()));
  check "timer is in the unstable snapshot" true
    (List.mem_assoc "test.timer.ns" (R.snapshot ~stability:`Unstable ()));
  R.reset ();
  check_int "Registry.reset zeroes the timer" 0 (R.histogram_value h).R.count

(* ---------- manifest ---------- *)

let test_manifest () =
  Ipds_obs.Manifest.reset ();
  Ipds_obs.Manifest.set_string "tool" "test";
  Ipds_obs.Manifest.set_int "seed" 7;
  Ipds_obs.Manifest.set_int "seed" 8;  (* last write wins *)
  check_str "sorted fields, last write wins"
    "{\"seed\":8,\"tool\":\"test\"}"
    (J.to_string (Ipds_obs.Manifest.to_json ()));
  Ipds_obs.Manifest.reset ()

(* ---------- events ---------- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let test_events_stream () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ipds-obs-test-%d.jsonl" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Ipds_obs.Manifest.reset ();
      Ipds_obs.Manifest.set_string "tool" "test-events";
      check "disabled before set_path" true (not (Ipds_obs.Events.enabled ()));
      Ipds_obs.Events.set_path (Some path);
      check "enabled" true (Ipds_obs.Events.enabled ());
      Ipds_obs.Events.emit ~kind:"alpha" [ ("x", J.Int 1) ];
      Ipds_obs.Events.emit ~kind:"beta" [ ("y", J.String "two") ];
      Ipds_obs.Events.close ();
      check "disabled after close" true (not (Ipds_obs.Events.enabled ()));
      let lines = read_lines path in
      check_int "manifest + 2 events" 3 (List.length lines);
      (* every line must be one complete JSON object *)
      let docs = List.map J.of_string lines in
      let member k d = J.member k d in
      let kind d =
        match member "kind" d with
        | Some (J.String s) -> s
        | _ -> "?"
      in
      check "kinds in order" true
        (List.map kind docs = [ "manifest"; "alpha"; "beta" ]);
      List.iteri
        (fun i d ->
          check "seq increments" true (member "seq" d = Some (J.Int i));
          check "has ts" true (member "ts" d <> None))
        docs;
      (match List.hd docs with
      | d -> (
          match member "manifest" d with
          | Some m ->
              check "manifest embedded" true
                (J.member "tool" m = Some (J.String "test-events"))
          | None -> Alcotest.fail "first line lacks manifest"));
      Ipds_obs.Manifest.reset ())

(* ---------- compact JSON encoder ---------- *)

let test_obs_json () =
  let doc =
    J.Obj
      [
        ("s", J.String "a\"b\n\twith \xe2\x82\xac");
        ("i", J.Int (-3));
        ("f", J.Float 0.5);
        ("nan", J.Float Float.nan);
        ("l", J.List [ J.Bool true; J.Null ]);
      ]
  in
  let s = J.to_string doc in
  check "single line" true (not (String.contains s '\n'));
  check "escapes quote" true (contains s "a\\\"b");
  check "non-finite floats are null" true (contains s "\"nan\":null");
  (* compact form must be readable back by the parser *)
  let back = J.of_string s in
  check "roundtrips through the parser" true
    (J.member "i" back = Some (J.Int (-3)))

(* Every report, JSONL line and metrics file is rendered by these two
   printers, so their bytes are pinned literally: nesting, empty
   containers, escapes, control bytes, non-finite floats and [-0.]. *)
let golden_doc =
  J.Obj
    [
      ("name", J.String "q\"b\\s\n\r\t\x01\x1f/\xe2\x82\xac");
      ("ints", J.List [ J.Int 0; J.Int (-42); J.Int max_int ]);
      ( "floats",
        J.List
          [
            J.Float 1.5; J.Float (-0.); J.Float 0.1; J.Float (0.1 +. 0.2);
            J.Float 1e300; J.Float Float.nan; J.Float Float.infinity;
            J.Float Float.neg_infinity;
          ] );
      ("empty", J.Obj [ ("l", J.List []); ("o", J.Obj []) ]);
      ( "nested",
        J.List
          [
            J.Obj [ ("k", J.Bool true); ("v", J.Null) ];
            J.List [ J.List []; J.Bool false ];
          ] );
    ]

let golden_compact =
  {|{"name":"q\"b\\s\n\r\t\u0001\u001f/€","ints":[0,-42,4611686018427387903],"floats":[1.5,-0,0.1,0.30000000000000004,1e+300,null,null,null],"empty":{"l":[],"o":{}},"nested":[{"k":true,"v":null},[[],false]]}|}

let golden_indented =
  {|{
  "name": "q\"b\\s\n\r\t\u0001\u001f/€",
  "ints": [
    0,
    -42,
    4611686018427387903
  ],
  "floats": [
    1.5,
    -0,
    0.1,
    0.30000000000000004,
    1e+300,
    null,
    null,
    null
  ],
  "empty": {
    "l": [],
    "o": {}
  },
  "nested": [
    {
      "k": true,
      "v": null
    },
    [
      [],
      false
    ]
  ]
}|}

let test_json_golden () =
  check_str "compact" golden_compact (J.to_string golden_doc);
  check_str "indented" golden_indented (J.to_string ~indent:2 golden_doc);
  let written write =
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ipds-obs-golden-%d.json" (Unix.getpid ()))
    in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        write path;
        In_channel.with_open_bin path In_channel.input_all)
  in
  check_str "compact file" (golden_compact ^ "\n")
    (written (fun p -> J.write_file p golden_doc));
  check_str "indented file" (golden_indented ^ "\n")
    (written (fun p -> J.write_file ~indent:2 p golden_doc))

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "gauge max" `Quick test_gauge_max;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "multi-domain merge" `Quick test_multi_domain_merge;
          Alcotest.test_case "stability filter" `Quick test_snapshot_stability;
          Alcotest.test_case "snapshot json shape" `Quick test_snapshot_json_shape;
        ] );
      ( "spans",
        [ Alcotest.test_case "accumulation" `Quick test_spans ] );
      ( "manifest",
        [ Alcotest.test_case "fields" `Quick test_manifest ] );
      ( "events",
        [ Alcotest.test_case "jsonl stream" `Quick test_events_stream ] );
      ( "json",
        [
          Alcotest.test_case "compact encoder" `Quick test_obs_json;
          Alcotest.test_case "golden rendering" `Quick test_json_golden;
        ] );
    ]
