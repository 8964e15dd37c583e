(* The per-layer metrics a traced run derives from its spans.  Each
   workload adds its deterministic counts, pass times and cache ratio. *)

(* [serve_ops] is how many traced operations went over [Wire] (their
   round trips are reconciled); [branches] how many branches the
   [checker.replay] spans fed. *)
let of_spans ~serve_ops ~branches =
  let tbl = Spans.summary () and in_ops = Spans.summary ~ops_only:true () in
  let m name = Spans.mean_total tbl name in
  (* the client-side span when the workload has one, else the server
     replay's *)
  let pick own server =
    if (Spans.get tbl own).Spans.count > 0 then m own else m server
  in
  let per_op name =
    if serve_ops = 0 then 0.
    else (Spans.get in_ops name).Spans.total /. float_of_int serve_ops
  in
  let unattributed, reconciliation = Wire.reconcile in_ops ~ops:serve_ops in
  let interp = m "interp.run" and checked = m "interp.run_checked" in
  let serve =
    if serve_ops = 0 then []
    else
      [
        ("wire.encode_us", Common.us (per_op "wire.encode"));
        ("wire.scan_decode_us", Common.us (per_op "server.scan_decode"));
        ("wire.reply_us", Common.us (per_op "wire.reply"));
        ("session.connect_us", Common.us (m "session.connect"));
        ("session.load_us", Common.us (m "session.load"));
        ("session.trace_us", Common.us (m "session.trace"));
        ("session.close_us", Common.us (m "session.close"));
        ("rtt.unattributed_us", Common.us unattributed);
        ("rtt.reconciliation", Stats.ratio_value reconciliation);
      ]
  in
  (* only compile-population validates images: the server does not on
     [Load_image] *)
  let validate =
    if (Spans.get tbl "image.validate").Spans.count = 0 then []
    else [ ("image.validate_ms", Common.ms (m "image.validate")) ]
  in
  ( serve @ validate
    @ [
      ("minic.compile_ms", Common.ms (m "minic.compile"));
      ("system.build_ms", Common.ms (m "system.build"));
      ("artifact.encode_ms", Common.ms (m "artifact.encode"));
      ("artifact.decode_ms", Common.ms (pick "artifact.decode" "server.decode"));
      ("sha256.image_us", Common.us (pick "sha256.image" "server.sha256"));
      ( "checker.ns_per_branch",
        if branches = 0 then 0.
        else
          (Spans.get tbl "checker.replay").Spans.total *. 1e9
          /. float_of_int branches );
      ("interp.run_us", Common.us interp);
      ("interp.run_checked_us", Common.us checked);
      ( "ipds.sw_overhead_pct",
        if interp = 0. then 0. else (checked -. interp) /. interp *. 100. );
    ],
    (if serve_ops = 0 then []
     else
       [
         Printf.sprintf "rtt.reconciliation %s over %d traced operations"
           (Stats.ratio_to_string reconciliation) serve_ops;
       ])
    @ [
      Printf.sprintf
        "ipds.sw_overhead_pct: interpreter %.2f us checked / %.2f us \
         unchecked, %d runs each"
        (Common.us checked) (Common.us interp)
        (Spans.get tbl "interp.run").Spans.count;
    ] )

(* Unchecked and checked interpreter runs, [n] of each, in ABBA order
   across calls, so that whichever side runs first (and inherits the
   previous work's garbage) alternates. *)
let pairs = ref 0

let interp_pair ~n ~unchecked ~checked =
  for _ = 1 to n do
    let a () = ignore (Spans.span "interp.run" unchecked)
    and b () = ignore (Spans.span "interp.run_checked" checked) in
    if !pairs land 1 = 0 then (a (); b ()) else (b (); a ());
    incr pairs
  done
