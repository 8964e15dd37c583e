(* Unit and property tests for the MIR substrate: operators, builder,
   validation, layout, and the printer/parser round trip. *)

module Mir = Ipds_mir

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------- operators ---------- *)

let test_binop_eval () =
  check_int "add" 7 (Mir.Binop.eval Mir.Binop.Add 3 4);
  check_int "sub" (-1) (Mir.Binop.eval Mir.Binop.Sub 3 4);
  check_int "mul" 12 (Mir.Binop.eval Mir.Binop.Mul 3 4);
  check_int "div" 2 (Mir.Binop.eval Mir.Binop.Div 9 4);
  check_int "div0 is total" 0 (Mir.Binop.eval Mir.Binop.Div 9 0);
  check_int "rem" 1 (Mir.Binop.eval Mir.Binop.Rem 9 4);
  check_int "rem0 is total" 0 (Mir.Binop.eval Mir.Binop.Rem 9 0);
  check_int "and" 0b100 (Mir.Binop.eval Mir.Binop.And 0b110 0b101);
  check_int "or" 0b111 (Mir.Binop.eval Mir.Binop.Or 0b110 0b101);
  check_int "xor" 0b011 (Mir.Binop.eval Mir.Binop.Xor 0b110 0b101);
  check_int "shl" 12 (Mir.Binop.eval Mir.Binop.Shl 3 2);
  check_int "shr" 3 (Mir.Binop.eval Mir.Binop.Shr 12 2);
  check_int "shr negative is arithmetic" (-2) (Mir.Binop.eval Mir.Binop.Shr (-8) 2)

let test_binop_names () =
  List.iter
    (fun op ->
      match Mir.Binop.of_string (Mir.Binop.to_string op) with
      | Some op' -> check "binop name round trip" true (op = op')
      | None -> Alcotest.fail "binop name did not parse")
    Mir.Binop.all;
  check "unknown binop" true (Mir.Binop.of_string "frob" = None)

let test_cmp_eval () =
  check "lt" true (Mir.Cmp.eval Mir.Cmp.Lt 1 2);
  check "le eq" true (Mir.Cmp.eval Mir.Cmp.Le 2 2);
  check "gt" false (Mir.Cmp.eval Mir.Cmp.Gt 1 2);
  check "ge" true (Mir.Cmp.eval Mir.Cmp.Ge 2 2);
  check "eq" false (Mir.Cmp.eval Mir.Cmp.Eq 1 2);
  check "ne" true (Mir.Cmp.eval Mir.Cmp.Ne 1 2)

let test_cmp_negate_swap () =
  List.iter
    (fun c ->
      for a = -3 to 3 do
        for b = -3 to 3 do
          check "negate flips result"
            (not (Mir.Cmp.eval c a b))
            (Mir.Cmp.eval (Mir.Cmp.negate c) a b);
          check "swap flips operands" (Mir.Cmp.eval c a b)
            (Mir.Cmp.eval (Mir.Cmp.swap c) b a)
        done
      done)
    Mir.Cmp.all

(* ---------- vars and cells ---------- *)

let test_var_make () =
  let v = Mir.Var.make ~id:3 ~name:"x" ~size:1 ~storage:Mir.Var.Local in
  check "scalar" true (Mir.Var.is_scalar v);
  let a = Mir.Var.make ~id:4 ~name:"a" ~size:8 ~storage:Mir.Var.Global in
  check "array not scalar" false (Mir.Var.is_scalar a);
  Alcotest.check_raises "zero size rejected"
    (Invalid_argument "Var.make: size must be >= 1") (fun () ->
      ignore (Mir.Var.make ~id:0 ~name:"z" ~size:0 ~storage:Mir.Var.Local))

let test_reg () =
  check_int "index" 5 (Mir.Reg.index (Mir.Reg.make 5));
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Reg.make: negative index") (fun () ->
      ignore (Mir.Reg.make (-1)))

(* ---------- builder & validation ---------- *)

let simple_program () =
  let module B = Mir.Builder in
  let b = B.create () in
  let g = B.global b "g" in
  B.func b "main" ~nparams:0 (fun fb _ ->
      let r = B.const fb 5 in
      B.store fb (Mir.Addr.Direct g) (Mir.Operand.reg r);
      B.ret fb (Some (Mir.Operand.reg r)));
  B.finish b

let test_builder_basic () =
  let p = simple_program () in
  check_int "one function" 1 (List.length p.Mir.Program.funcs);
  let f = Mir.Program.find_func_exn p "main" in
  check_int "one block" 1 (Array.length f.Mir.Func.blocks);
  check_int "instr count includes terminator" 3 f.Mir.Func.instr_count

let test_builder_duplicate_function () =
  let module B = Mir.Builder in
  let b = B.create () in
  B.func b "f" ~nparams:0 (fun fb _ -> B.ret fb None);
  check "duplicate rejected" true
    (try
       B.func b "f" ~nparams:0 (fun fb _ -> B.ret fb None);
       false
     with Invalid_argument _ -> true)

let test_builder_unterminated () =
  let module B = Mir.Builder in
  let b = B.create () in
  check "unterminated block rejected" true
    (try
       B.func b "f" ~nparams:0 (fun fb _ -> ignore (B.const fb 1));
       false
     with Invalid_argument _ -> true)

let test_validate_undeclared_call () =
  let module B = Mir.Builder in
  let b = B.create () in
  B.func b "main" ~nparams:0 (fun fb _ ->
      B.call_void fb "mystery" [];
      B.ret fb None);
  check "undeclared callee rejected" true
    (try
       ignore (B.finish b);
       false
     with Invalid_argument _ -> true)

let test_validate_missing_main () =
  let module B = Mir.Builder in
  let b = B.create () in
  B.func b "not_main" ~nparams:0 (fun fb _ -> B.ret fb None);
  check "missing main rejected" true
    (try
       ignore (B.finish b);
       false
     with Invalid_argument _ -> true)

(* ---------- locations and layout ---------- *)

let test_locations () =
  let p = simple_program () in
  let f = Mir.Program.find_func_exn p "main" in
  (match Mir.Func.location f 0 with
  | Mir.Func.Body (0, 0) -> ()
  | Mir.Func.Body _ | Mir.Func.Term _ -> Alcotest.fail "iid 0 should be body 0,0");
  (match Mir.Func.location f 2 with
  | Mir.Func.Term 0 -> ()
  | Mir.Func.Body _ | Mir.Func.Term _ -> Alcotest.fail "iid 2 should be terminator");
  check "terminator has no op" true (Mir.Func.op_at f 2 = None);
  check "out of range raises" true
    (try
       ignore (Mir.Func.location f 99);
       false
     with Not_found -> true)

(* A scan of every block and instruction: the reference the binary
   search of [Func.location] is checked against. *)
let location_ref (f : Mir.Func.t) iid =
  if iid < 0 || iid >= f.instr_count then raise Not_found;
  let found = ref None in
  Array.iter
    (fun (b : Mir.Block.t) ->
      if !found = None then
        if b.term_iid = iid then found := Some (Mir.Func.Term b.index)
        else
          Array.iteri
            (fun pos (i : Mir.Instr.t) ->
              if i.iid = iid then found := Some (Mir.Func.Body (b.index, pos)))
            b.body)
    f.blocks;
  match !found with Some loc -> loc | None -> raise Not_found

(* [location] and [op_at] agree with the scan at every id of every
   function, and both raise [Not_found] at -1 and [instr_count]. *)
let locations_agree ~label (p : Mir.Program.t) =
  let opt f x = try Some (f x) with Not_found -> None in
  List.iter
    (fun (f : Mir.Func.t) ->
      for iid = -1 to f.instr_count do
        let want = opt (location_ref f) iid in
        let want_op =
          Option.map
            (function
              | Mir.Func.Body (b, pos) -> Some f.blocks.(b).body.(pos).op
              | Mir.Func.Term _ -> None)
            want
        in
        if opt (Mir.Func.location f) iid <> want then
          Alcotest.failf "%s/%s: location of id %d differs from the scan" label f.name iid;
        if not (Option.equal (Option.equal ( == )) (opt (Mir.Func.op_at f) iid) want_op)
        then Alcotest.failf "%s/%s: op_at of id %d differs from the scan" label f.name iid;
        if (iid = -1 || iid = f.instr_count) && want <> None then
          Alcotest.failf "%s/%s: id %d found" label f.name iid
      done)
    p.funcs

let test_locations_vs_scan () =
  let both label p =
    locations_agree ~label p;
    locations_agree ~label:(label ^ " optimized") (Ipds_opt.Passes.optimize p)
  in
  List.iter
    (fun (w : Ipds_workloads.Workloads.t) ->
      both w.name (Ipds_workloads.Workloads.program w))
    Ipds_workloads.Workloads.all;
  for index = 0 to 199 do
    both (Printf.sprintf "gen 2006/%d" index) (Ipds_gen.Gen.compile ~seed:2006 ~index ())
  done;
  let f = Mir.Program.find_func_exn (simple_program ()) "main" in
  check "no blocks raises" true
    (try
       ignore (Mir.Func.location { f with Mir.Func.blocks = [||] } 0);
       false
     with Not_found -> true);
  (* numbered out of block order, which Validate rejects: a location
     found is still the right one *)
  let nop iid = { Mir.Instr.iid; op = Mir.Op.Nop } in
  let g =
    {
      f with
      Mir.Func.blocks = [| { (Mir.Func.entry f) with body = [| nop 1; nop 0 |]; term_iid = 2 } |];
      instr_count = 3;
    }
  in
  for iid = 0 to 2 do
    match Mir.Func.location g iid with
    | loc -> check (Printf.sprintf "misnumbered id %d" iid) true (loc = location_ref g iid)
    | exception Not_found -> ()
  done

let test_layout () =
  let p = simple_program () in
  let layout = Mir.Layout.make p in
  let base = Mir.Layout.func_base layout "main" in
  check_int "base aligned" 0 (base mod 64);
  check_int "pc spacing" Mir.Layout.instr_bytes
    (Mir.Layout.pc layout ~fname:"main" ~iid:1 - Mir.Layout.pc layout ~fname:"main" ~iid:0);
  (match Mir.Layout.func_of_pc layout (base + 4) with
  | Some ("main", 1) -> ()
  | Some _ | None -> Alcotest.fail "func_of_pc should invert pc");
  check "pc outside code" true (Mir.Layout.func_of_pc layout 0 = None)

(* ---------- parser / printer ---------- *)

let parse_print_parse src =
  let p1 = Mir.Parser.program_of_string src in
  let s1 = Mir.Printer.program_to_string p1 in
  let p2 = Mir.Parser.program_of_string s1 in
  let s2 = Mir.Printer.program_to_string p2 in
  (s1, s2)

let test_parser_roundtrip () =
  let src =
    {|
global g
global buf[4]
extern strcmp pure
extern recv writes(0)
extern syscall writes_all
func helper(r0, r1) {
 var t
start:
  r2 = add r0, r1
  store t, r2
  r3 = load t
  ret r3
}
func main() {
 var x
entry:
  r0 = 7
  store x, r0
  r1 = load x
  r2 = addr buf[1]
  store [r2], r1
  r4 = load buf[0]
  r5 = call helper(r4, 3)
  r6 = input 0
  output r6
  nop
  br ge r5, 10, big, small
big:
  jmp done
small:
  jmp done
done:
  halt
}
|}
  in
  let s1, s2 = parse_print_parse src in
  check_str "printer/parser fixpoint" s1 s2

let test_parser_errors () =
  let bad input =
    try
      ignore (Mir.Parser.program_of_string input);
      false
    with
    | Mir.Parser.Parse_error _ | Invalid_argument _ -> true
  in
  check "garbage" true (bad "func ???");
  check "unknown var" true (bad "func main() {\ne:\n r0 = load nope\n ret\n}");
  check "bad cmp" true
    (bad "func main() {\ne:\n br zz r0, 1, e, e\n}");
  check "missing brace" true (bad "func main() {\ne:\n ret")

let test_printer_negative_and_empty () =
  let src =
    {|
func main() {
entry:
  r0 = -7
  r1 = add r0, -3
  output r1
  ret -1
}
|}
  in
  let s1, s2 = parse_print_parse src in
  check_str "negative immediates round trip" s1 s2

let test_extern_summaries () =
  check "pure round" true
    (Mir.Extern.Pure = Mir.Extern.lookup [ ("f", Mir.Extern.Pure) ] "f");
  check "unknown is conservative" true
    (Mir.Extern.Writes_anything = Mir.Extern.lookup [] "mystery");
  check "args summaries compare" true
    (Mir.Extern.Writes_args [ 0; 2 ] = Mir.Extern.Writes_args [ 0; 2 ]);
  check "different args differ" false
    (Mir.Extern.Writes_args [ 0 ] = Mir.Extern.Writes_args [ 1 ]);
  check "default table has strcmp" true
    (List.mem_assoc "strcmp" Mir.Extern.default_table)

let test_validate_error_classes () =
  (* hand-build invalid programs through the record types directly *)
  let v = Mir.Var.make ~id:0 ~name:"x" ~size:1 ~storage:Mir.Var.Local in
  let mk_func blocks instr_count reg_count =
    {
      Mir.Func.name = "main";
      params = [];
      locals = [ v ];
      blocks;
      reg_count;
      instr_count;
    }
  in
  let block body term term_iid =
    { Mir.Block.index = 0; label = "entry"; body; term; term_iid }
  in
  let prog f =
    {
      Mir.Program.funcs = [ f ];
      globals = [];
      externs = [];
      main = "main";
      var_count = 1;
    }
  in
  let messages f =
    List.map (fun (e : Mir.Validate.error) -> e.message) (Mir.Validate.check (prog f))
  in
  let check_msgs = Alcotest.(check (list string)) in
  (* dangling block target *)
  let f1 = mk_func [| block [||] (Mir.Terminator.Jump 5) 0 |] 1 0 in
  check_msgs "dangling target caught" [ "block target 5 out of range" ] (messages f1);
  (* out-of-range register *)
  let f2 =
    mk_func
      [| block [| { Mir.Instr.iid = 0; op = Mir.Op.Const (Mir.Reg.make 9, 1) } |]
           (Mir.Terminator.Return None) 1 |]
      2 1
  in
  check_msgs "register out of range caught" [ "register r9 out of range" ] (messages f2);
  (* non-dense instruction ids *)
  let f3 =
    mk_func
      [| block [| { Mir.Instr.iid = 7; op = Mir.Op.Nop } |] (Mir.Terminator.Return None) 1 |]
      2 0
  in
  check_msgs "non-dense iids caught"
    [ "instruction id 7 out of range"; "instruction ids not dense: 1 seen, 2 expected" ]
    (messages f3);
  Alcotest.check_raises "check_exn names the out-of-range id"
    (Invalid_argument "Validate: main: instruction id 7 out of range") (fun () ->
      Mir.Validate.check_exn (prog f3));
  (* dense ids out of block order: across blocks, then within a body *)
  let nop iid = { Mir.Instr.iid; op = Mir.Op.Nop } in
  let f4 =
    mk_func
      [|
        block [| nop 2 |] (Mir.Terminator.Jump 1) 3;
        { (block [| nop 0 |] (Mir.Terminator.Return None) 1) with Mir.Block.index = 1 };
      |]
      4 0
  in
  check_msgs "ids out of block order caught" [ "instruction ids not in block order" ]
    (messages f4);
  let f5 = mk_func [| block [| nop 1; nop 0 |] (Mir.Terminator.Return None) 2 |] 3 0 in
  check_msgs "ids out of body order caught" [ "instruction ids not in block order" ]
    (messages f5)

let test_program_lookups () =
  let p = simple_program () in
  check "find_func" true (Mir.Program.find_func p "main" <> None);
  check "find_func misses" true (Mir.Program.find_func p "nope" = None);
  check "is_defined" true (Mir.Program.is_defined p "main");
  let g = List.hd p.Mir.Program.globals in
  check "find_var" true
    (match Mir.Program.find_var p g.Mir.Var.id with
    | Some v -> Mir.Var.equal v g
    | None -> false);
  check "find_var misses" true (Mir.Program.find_var p 999 = None)

let prop_roundtrip_random =
  QCheck2.Test.make ~name:"printer/parser round trip on random MIR" ~count:100
    Gen.mir_program (fun p ->
      let s1 = Mir.Printer.program_to_string p in
      let p2 = Mir.Parser.program_of_string s1 in
      let s2 = Mir.Printer.program_to_string p2 in
      String.equal s1 s2)

(* The artifact "code" section persists programs as printed text, so the
   parser must rebuild the exact structure — not just stable text — up
   to what the text can express: [r = <imm>] always parses as [Const],
   so [Move (r, Imm n)] comes back as [Const (r, n)], and [reg_count]
   (a builder reservation the printer has no syntax for) is inferred
   from the registers actually mentioned. *)
let canon_program (p : Mir.Program.t) =
  let canon_op = function
    | Mir.Op.Move (r, Mir.Operand.Imm n) -> Mir.Op.Const (r, n)
    | op -> op
  in
  let canon_block (b : Mir.Block.t) =
    {
      b with
      Mir.Block.body =
        Array.map
          (fun (i : Mir.Instr.t) -> { i with Mir.Instr.op = canon_op i.op })
          b.Mir.Block.body;
    }
  in
  let canon_func (f : Mir.Func.t) =
    let count = ref 0 in
    let see r = count := max !count (Mir.Reg.index r + 1) in
    List.iter see f.Mir.Func.params;
    Array.iter
      (fun (b : Mir.Block.t) ->
        Array.iter
          (fun (i : Mir.Instr.t) ->
            Option.iter see (Mir.Op.def i.op);
            List.iter see (Mir.Op.uses i.op))
          b.Mir.Block.body;
        List.iter see (Mir.Terminator.uses b.Mir.Block.term))
      f.Mir.Func.blocks;
    {
      f with
      Mir.Func.blocks = Array.map canon_block f.Mir.Func.blocks;
      Mir.Func.reg_count = !count;
    }
  in
  { p with Mir.Program.funcs = List.map canon_func p.Mir.Program.funcs }

let structural_roundtrip p =
  Mir.Parser.program_of_string (Mir.Printer.program_to_string p)
  = canon_program p

let prop_roundtrip_structural =
  QCheck2.Test.make ~name:"parser rebuilds the exact program (random MIR)"
    ~count:100 Gen.mir_program structural_roundtrip

let prop_roundtrip_structural_minic =
  QCheck2.Test.make
    ~name:"parser rebuilds the exact program (MiniC front end)" ~count:60
    Gen.minic_program structural_roundtrip

let prop_layout_inverse =
  QCheck2.Test.make ~name:"layout pc/func_of_pc are inverse" ~count:60
    Gen.mir_program (fun p ->
      let layout = Mir.Layout.make p in
      List.for_all
        (fun (f : Mir.Func.t) ->
          List.for_all
            (fun iid ->
              Mir.Layout.func_of_pc layout
                (Mir.Layout.pc layout ~fname:f.name ~iid)
              = Some (f.name, iid))
            (List.init f.instr_count Fun.id))
        p.Mir.Program.funcs)

let prop_validate_random =
  QCheck2.Test.make ~name:"random programs validate" ~count:100 Gen.mir_program
    (fun p -> Mir.Validate.check p = [])

(* ---------- MIR text against the reference printer and parser ---------- *)

module Ref = Mir_text_ref

(* One parse, reduced to what must agree: the re-printed text, or the
   exception and its message. *)
let outcome parse print src =
  match parse src with
  | p -> Ok (print p)
  | exception Mir.Parser.Parse_error m -> Error ("Parse_error", m)
  | exception Ref.Parse_error m -> Error ("Parse_error", m)
  | exception Invalid_argument m -> Error ("Invalid_argument", m)
  | exception Failure m -> Error ("Failure", m)

let show = function
  | Ok s -> "Ok " ^ String.escaped s
  | Error (e, m) -> e ^ " " ^ m

(* The reference lexer fails on an integer literal outside the int
   range with [int_of_string]'s [Failure]; the library refuses it with
   a located [Parse_error].  That is the one permitted difference. *)
let parse_agrees ~label src =
  let got = outcome Mir.Parser.program_of_string Mir.Printer.program_to_string src in
  let want = outcome Ref.program_of_string Ref.program_to_string src in
  let same =
    match want, got with
    | Error ("Failure", "int_of_string"), Error ("Parse_error", m) ->
        String.ends_with ~suffix:": integer literal out of range" m
    | _ -> want = got
  in
  if not same then
    Alcotest.failf "%s: parse differs from the reference\n want %s\n got  %s" label
      (show want) (show got)

let text_agrees ~label (p : Mir.Program.t) =
  let text = Mir.Printer.program_to_string p in
  check_str (label ^ ": program text") (Ref.program_to_string p) text;
  List.iter
    (fun (f : Mir.Func.t) ->
      check_str
        (label ^ "/" ^ f.Mir.Func.name ^ ": function text")
        (Ref.func_to_string f) (Mir.Printer.func_to_string f))
    p.Mir.Program.funcs;
  (* printed text parses back to itself, through either parser *)
  parse_agrees ~label text;
  check_str (label ^ ": re-print")
    text
    (Mir.Printer.program_to_string (Mir.Parser.program_of_string text))

let hand_programs =
  let many = String.concat ", " (List.init 30 (fun i -> Printf.sprintf "r%d" i)) in
  [
    ( "wide call",
      Printf.sprintf
        {|extern sink pure
func main() {
e:
  r0 = 1
  r31 = call sink(%s, -4611686018427387904, 4611686018427387903)
  call sink(%s)
  ret r31
}
|}
        many many );
    ( "negatives",
      {|func main() {
e:
  r0 = -7
  r1 = sub r0, -3
  store [r0], -1
  br lt r1, -100, a, b
a:
  ret -1
b:
  output -2
  ret
}
|} );
    ( "arrays and externs",
      {|global buf[16]
global g
extern memcpy writes(0,2,5)
extern strlen pure
extern syscall writes_all
func helper(r0, r1, r2) {
 var tmp[8]
 var s
e:
  r3 = addr tmp[r0]
  call memcpy(r3, r1, r2)
  store tmp[3], r2
  r4 = load tmp[r1]
  store buf[r4], 9
  r5 = load buf[0]
  store s, r5
  r6 = call strlen(r3)
  r7 = call syscall()
  ret r6
}

func main() {
e:
  r0 = call helper(1, 2, 3)
  r1 = input 2
  nop
  halt
}
|} );
    ( "long names",
      Printf.sprintf
        {|func %s() {
 var %s
%s:
  r0 = load %s
  br ge r0, 0, %s, %s
%s:
  ret
}
func main() {
e:
  call %s()
  halt
}
|}
        (String.make 90 'f') (String.make 80 'v') (String.make 85 'l')
        (String.make 80 'v') (String.make 85 'l') (String.make 70 'm')
        (String.make 70 'm') (String.make 90 'f') );
  ]

let test_text_hand_cases () =
  List.iter
    (fun (label, src) ->
      text_agrees ~label (Mir.Parser.program_of_string src);
      parse_agrees ~label src)
    hand_programs

let test_text_builtins () =
  List.iter
    (fun (w : Ipds_workloads.Workloads.t) ->
      text_agrees ~label:w.name (Ipds_workloads.Workloads.program w))
    Ipds_workloads.Workloads.all

(* Seed-2006 members checked; [IPDS_MIR_TEXT_MEMBERS] raises the count
   for the opt-in [@mir-text-diff] alias. *)
let text_members =
  match Sys.getenv_opt "IPDS_MIR_TEXT_MEMBERS" with
  | Some n -> int_of_string n
  | None -> 200

let test_text_generated () =
  for index = 0 to text_members - 1 do
    text_agrees
      ~label:(Printf.sprintf "gen 2006/%d" index)
      (Ipds_gen.Gen.compile ~seed:2006 ~index ())
  done

let prop_text_random =
  QCheck2.Test.make ~name:"printer and parser match the reference (random MIR)"
    ~count:100 Gen.mir_program (fun p ->
      text_agrees ~label:"random" p;
      true)

(* Malformed text: every prefix of two programs, one-byte substitutions
   and hand-written errors raise what the reference raises, with the
   same message. *)
let test_text_malformed () =
  let srcs =
    List.map snd hand_programs
    @ [ Mir.Printer.program_to_string
          (Ipds_workloads.Workloads.program (Ipds_workloads.Workloads.find "telnetd")) ]
  in
  List.iteri
    (fun k src ->
      for cut = 0 to String.length src - 1 do
        parse_agrees ~label:(Printf.sprintf "program %d cut at %d" k cut)
          (String.sub src 0 cut)
      done)
    srcs;
  let rng = Random.State.make [| 2006 |] in
  let junk = "(){}[],:=#- \n0129rxz_-" in
  List.iteri
    (fun k src ->
      for trial = 0 to 299 do
        let b = Bytes.of_string src in
        let at = Random.State.int rng (Bytes.length b) in
        Bytes.set b at junk.[Random.State.int rng (String.length junk)];
        parse_agrees
          ~label:(Printf.sprintf "program %d, substitution %d at %d" k trial at)
          (Bytes.to_string b)
      done)
    srcs;
  List.iter
    (fun src -> parse_agrees ~label:(String.escaped src) src)
    [
      "";
      "func ???";
      "func main() {\ne:\n r0 = load nope\n ret\n}";
      "func main() {\ne:\n br zz r0, 1, e, e\n}";
      "func main() {\ne:\n ret";
      "func main() {\ne:\n r0 = 5 $\n}";
      "func main() {\ne:\n r0 = -\n halt\n}";
      "func main() {\ne:\n r0 = 12ab\n halt\n}";
      "func main() {\ne:\n r0 = 4611686018427387904\n halt\n}";
      "func main() {\ne:\n r0 = -4611686018427387905\n halt\n}";
      "global\n";
      "extern f writes(\n";
      "func main(r0, {\n";
      "# only a comment";
      "func main() {\ne:\n r0x1f = 5\n r1_0 = add r0x1f, r007\n ret r0b11\n}";
      "func main() {\ne:\n r4611686018427387904 = 5\n halt\n}";
      "func main() {\ne:\n r0 = 5\n ret r\n}";
    ]

(* ---------- integer literals ---------- *)

let test_int_literal_range () =
  Alcotest.check_raises "overlong literal"
    (Mir.Parser.Parse_error "line 3: integer literal out of range") (fun () ->
      ignore
        (Mir.Parser.program_of_string
           "func main() {\n e:\n  r0 = 99999999999999999999999\n  halt\n}\n"));
  Alcotest.check_raises "one past max_int"
    (Mir.Parser.Parse_error "line 2: integer literal out of range") (fun () ->
      ignore (Mir.Parser.program_of_string "func main() {\ne: r0 = 4611686018427387904\n halt\n}"));
  Alcotest.check_raises "one past min_int"
    (Mir.Parser.Parse_error "line 1: integer literal out of range") (fun () ->
      ignore (Mir.Parser.program_of_string "func main() { e: r0 = -4611686018427387905 halt }"));
  let module B = Mir.Builder in
  let b = B.create () in
  B.func b "main" ~nparams:0 (fun fb _ ->
      let lo = B.const fb min_int in
      let hi = B.const fb max_int in
      B.output fb (Mir.Operand.imm min_int);
      B.output fb (Mir.Operand.imm max_int);
      let r = B.binop fb Mir.Binop.Sub (Mir.Operand.reg hi) (Mir.Operand.reg lo) in
      B.ret fb (Some (Mir.Operand.reg r)));
  let p = B.finish b in
  let text = Mir.Printer.program_to_string p in
  check "extremes printed" true
    (List.for_all
       (fun n ->
         let needle = string_of_int n in
         let rec has i =
           i + String.length needle <= String.length text
           && (String.sub text i (String.length needle) = needle || has (i + 1))
         in
         has 0)
       [ min_int; max_int ]);
  check "min_int/max_int round trip" true (structural_roundtrip p)

let () =
  Alcotest.run "mir"
    [
      ( "operators",
        [
          Alcotest.test_case "binop eval" `Quick test_binop_eval;
          Alcotest.test_case "binop names" `Quick test_binop_names;
          Alcotest.test_case "cmp eval" `Quick test_cmp_eval;
          Alcotest.test_case "cmp negate/swap" `Quick test_cmp_negate_swap;
        ] );
      ( "variables",
        [
          Alcotest.test_case "var make" `Quick test_var_make;
          Alcotest.test_case "reg" `Quick test_reg;
        ] );
      ( "builder",
        [
          Alcotest.test_case "basic" `Quick test_builder_basic;
          Alcotest.test_case "duplicate function" `Quick test_builder_duplicate_function;
          Alcotest.test_case "unterminated block" `Quick test_builder_unterminated;
          Alcotest.test_case "undeclared call" `Quick test_validate_undeclared_call;
          Alcotest.test_case "missing main" `Quick test_validate_missing_main;
        ] );
      ( "layout",
        [
          Alcotest.test_case "locations" `Quick test_locations;
          Alcotest.test_case "locations against the scan" `Quick test_locations_vs_scan;
          Alcotest.test_case "layout" `Quick test_layout;
        ] );
      ( "parser",
        [
          Alcotest.test_case "round trip" `Quick test_parser_roundtrip;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          QCheck_alcotest.to_alcotest prop_roundtrip_random;
          QCheck_alcotest.to_alcotest prop_roundtrip_structural;
          QCheck_alcotest.to_alcotest prop_roundtrip_structural_minic;
          QCheck_alcotest.to_alcotest prop_validate_random;
          QCheck_alcotest.to_alcotest prop_layout_inverse;
          Alcotest.test_case "negatives and empties" `Quick test_printer_negative_and_empty;
          Alcotest.test_case "integer literal range" `Quick test_int_literal_range;
        ] );
      ( "text-ref",
        [
          Alcotest.test_case "hand cases" `Quick test_text_hand_cases;
          Alcotest.test_case "built-ins" `Quick test_text_builtins;
          Alcotest.test_case "malformed input" `Quick test_text_malformed;
          QCheck_alcotest.to_alcotest prop_text_random;
          Alcotest.test_case "generated members" `Slow test_text_generated;
        ] );
      ( "program",
        [
          Alcotest.test_case "extern summaries" `Quick test_extern_summaries;
          Alcotest.test_case "validate error classes" `Quick test_validate_error_classes;
          Alcotest.test_case "program lookups" `Quick test_program_lookups;
        ] );
    ]
