(* End-to-end smoke test of the pass pipeline and the function-granular
   incremental cache (the @pass-smoke alias, wired into runtest).

   One process, one fresh store, three builds through
   Ipds_artifact.Incremental:

   - cold: whole-program miss, every function misses the fn tier, the
     analyze pass runs once per function;
   - warm: whole-program hit, nothing compiles or analyzes;
   - edited: one constant in one function changed (same instruction
     count, so every other function keeps its base PC and digest) —
     whole-program miss, every *other* function hits the fn tier, and
     the analyze/tables passes run exactly once.

   Plus the assembly invariants: the incrementally assembled system is
   byte-identical to a fresh sequential build of the edited program,
   for any --jobs; and a version-skewed (v1-patched) artifact loads as
   a full miss but still rebuilds from the intact fn tier without
   re-analysis. *)

module Core = Ipds_core
module A = Ipds_artifact.Artifact
module Obj = Ipds_artifact.Object_file
module Store = Ipds_artifact.Store
module Incremental = Ipds_artifact.Incremental
module Pass = Ipds_pass.Pass
module Pool = Ipds_parallel.Pool

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("pass-smoke: " ^ s);
      exit 1)
    fmt

(* Three functions; [clamp] is a pure leaf, so editing its threshold
   changes neither the points-to solution nor any callee summary —
   exactly the situation where only one digest may move. *)
let source threshold =
  Printf.sprintf
    {|
int clamp(int x) {
  if (x > %d) { return %d; }
  return x;
}

int check_pw(int *buf, int n) {
  int h;
  h = hash_pw(buf, n);
  if (h == 4660) { return 1; }
  return 0;
}

int main() {
  int sess[4];
  int pw[4];
  int i;
  int ok;
  int c;
  sess[0] = 0;
  sess[1] = 0;
  read_line(&pw[0], 4);
  ok = check_pw(&pw[0], 4);
  if (ok == 1) { sess[0] = 1; output(1); } else { output(0); }
  i = 0;
  while (i < 5) {
    c = input(0) %% 3;
    if (sess[0]) { output(7); } else { output(6); }
    if (c == 2) { sess[1] = sess[1] + 1; }
    i = i + 1;
  }
  output(clamp(sess[1]));
  return 0;
}
|}
    threshold threshold

let src_v1 = source 100
let src_v2 = source 99
let options = Ipds_correlation.Analysis.default_options

type snap = {
  store : string -> int;  (* the counter store.<name> *)
  analyze : int;
  tables : int;
  digests : int;
  builds : int;
}

let snap () =
  let metrics = Ipds_obs.Registry.snapshot () in
  {
    store =
      (fun name ->
        match List.assoc_opt ("store." ^ name) metrics with
        | Some (Ipds_obs.Registry.Counter n) -> n
        | _ -> fail "no counter store.%s" name);
    analyze = Pass.units "analyze";
    tables = Pass.units "tables";
    digests = Pass.units "digest";
    builds = Core.System.build_count ();
  }

let expect name got want =
  if got <> want then fail "%s: got %d, want %d" name got want

let () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ipds-pass-smoke-%d" (Unix.getpid ()))
  in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
  @@ fun () ->
  let store = Store.create ~dir in
  let key src = Store.key ~source:src ~promote:false ~options in
  let prog1 = Ipds_minic.Minic.compile src_v1 in
  let prog2 = Ipds_minic.Minic.compile src_v2 in
  let n = List.length prog1.Ipds_mir.Program.funcs in
  if n < 3 then fail "want at least 3 functions, got %d" n;

  (* cold: everything misses, every function analyzed *)
  let t0 = snap () in
  let cold = Incremental.system ~options store ~key:(key src_v1) (fun () -> prog1) in
  let t1 = snap () in
  expect "cold: artifact misses" (t1.store "misses" - t0.store "misses") 1;
  expect "cold: artifact hits" (t1.store "hits" - t0.store "hits") 0;
  expect "cold: fn misses" (t1.store "fn_misses" - t0.store "fn_misses") n;
  expect "cold: fn hits" (t1.store "fn_hits" - t0.store "fn_hits") 0;
  expect "cold: analyze units" (t1.analyze - t0.analyze) n;
  expect "cold: tables units" (t1.tables - t0.tables) n;
  expect "cold: digest units" (t1.digests - t0.digests) n;
  expect "cold: builds" (t1.builds - t0.builds) 1;

  (* warm: the whole-program artifact hits; no compile, no analysis *)
  let warm =
    Incremental.system ~options store ~key:(key src_v1) (fun () ->
        fail "warm run re-ran the front end")
  in
  let t2 = snap () in
  expect "warm: artifact hits" (t2.store "hits" - t1.store "hits") 1;
  expect "warm: fn lookups" (t2.store "fn_hits" - t1.store "fn_hits") 0;
  expect "warm: analyze units" (t2.analyze - t1.analyze) 0;
  expect "warm: builds" (t2.builds - t1.builds) 0;
  if not (Bytes.equal (A.to_bytes warm) (A.to_bytes cold)) then
    fail "warm artifact bytes differ from cold";

  (* edited: exactly one function re-analyzed, the rest served from the
     fn tier — through a pool, which must not change anything *)
  let edited =
    Pool.with_pool ~jobs:3 (fun pool ->
        Incremental.system ~options ~pool store ~key:(key src_v2) (fun () ->
            prog2))
  in
  let t3 = snap () in
  expect "edited: artifact misses" (t3.store "misses" - t2.store "misses") 1;
  expect "edited: fn hits" (t3.store "fn_hits" - t2.store "fn_hits") (n - 1);
  expect "edited: fn misses" (t3.store "fn_misses" - t2.store "fn_misses") 1;
  expect "edited: analyze units" (t3.analyze - t2.analyze) 1;
  expect "edited: tables units" (t3.tables - t2.tables) 1;
  expect "edited: digest units" (t3.digests - t2.digests) n;

  (* digests: only the edited function's moved *)
  let digest sys f = (Core.System.info sys f).Core.System.digest in
  if String.equal (digest cold "clamp") (digest edited "clamp") then
    fail "edited clamp kept its digest";
  List.iter
    (fun f ->
      if not (String.equal (digest cold f) (digest edited f)) then
        fail "unedited %s changed digest" f)
    [ "check_pw"; "main" ];

  (* assembly: incremental + parallel build is byte-identical to a
     fresh sequential one *)
  let fresh = Core.System.build ~options prog2 in
  if not (Bytes.equal (A.to_bytes edited) (A.to_bytes fresh)) then
    fail "incremental artifact differs from a fresh sequential build";
  let t3 = snap () in

  (* version skew: patch the stored artifact's format version to 1 —
     the whole-program load must degrade to a corrupt miss, but the
     rebuild still comes entirely from the intact fn tier *)
  let path = Store.path_of_key store (key src_v1) in
  let bytes = Obj.read_file path in
  Bytes.set_int32_le bytes 8 1l;
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc;
  let rebuilt =
    Incremental.system ~options store ~key:(key src_v1) (fun () -> prog1)
  in
  let t4 = snap () in
  expect "skew: corrupt misses" (t4.store "corrupt" - t3.store "corrupt") 1;
  expect "skew: fn hits" (t4.store "fn_hits" - t3.store "fn_hits") n;
  expect "skew: analyze units" (t4.analyze - t3.analyze) 0;
  if not (Bytes.equal (A.to_bytes rebuilt) (A.to_bytes cold)) then
    fail "post-skew rebuild differs from the cold artifact";

  Printf.printf
    "pass-smoke OK: cold %d/%d analyzed, warm 0, one-function edit \
     re-analyzed 1 of %d; artifacts byte-identical (incremental, pool, \
     version-skew rebuild)\n"
    n n n
