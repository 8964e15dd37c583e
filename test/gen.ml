(* Random program generators shared by the property-based suites.

   Two flavours:
   - [minic_program]: structured MiniC ASTs compiled through the real
     front end — always well-formed, mostly terminating;
   - [mir_program]: raw MIR built directly — covers shapes the MiniC
     code generator never produces (indexed scalars, arbitrary block
     graphs, stray pointer arithmetic).  Runs may fault or spin; the
     interpreter's step cap bounds them. *)

module Mir = Ipds_mir
module Q = QCheck2.Gen

let ( let* ) = Q.bind

(* ---------- MiniC generator ---------- *)

let scalar_names = [ "a"; "b"; "c"; "d" ]
let array_name = "arr"
let array_size = 4

let gen_value_expr ~depth : Ipds_minic.Ast.expr Q.t =
  let open Ipds_minic.Ast in
  let rec go depth =
    let leaf =
      Q.oneof
        [
          Q.map (fun n -> Int_lit n) (Q.int_range (-8) 16);
          Q.map (fun v -> Var v) (Q.oneofl scalar_names);
          Q.map (fun i -> Index (array_name, Int_lit i)) (Q.int_range 0 (array_size - 1));
          Q.return (Input 0);
        ]
    in
    if depth <= 0 then leaf
    else
      Q.frequency
        [
          (3, leaf);
          ( 2,
            let* op =
              Q.oneofl
                Mir.Binop.[ Add; Sub; Mul; And; Or; Xor ]
            in
            let* a = go (depth - 1) in
            let* b = go (depth - 1) in
            Q.return (Binary (Arith op, a, b)) );
          ( 1,
            let* e = go (depth - 1) in
            Q.return (Unary (Neg, e)) );
        ]
  in
  go depth

let gen_cond_expr ~depth : Ipds_minic.Ast.expr Q.t =
  let open Ipds_minic.Ast in
  let* cmp = Q.oneofl Mir.Cmp.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let* lhs = gen_value_expr ~depth in
  let* k = Q.int_range (-4) 12 in
  Q.return (Binary (Cmp cmp, lhs, Int_lit k))

let rec gen_stmt ~depth : Ipds_minic.Ast.stmt Q.t =
  let open Ipds_minic.Ast in
  let assign =
    let* target =
      Q.oneof
        [
          Q.map (fun v -> Lvar v) (Q.oneofl scalar_names);
          Q.map
            (fun i -> Lindex (array_name, Int_lit i))
            (Q.int_range 0 (array_size - 1));
        ]
    in
    let* e = gen_value_expr ~depth:2 in
    Q.return (Assign (target, e))
  in
  let out =
    let* e = gen_value_expr ~depth:1 in
    Q.return (Output e)
  in
  if depth <= 0 then Q.oneof [ assign; out ]
  else
    Q.frequency
      [
        (4, assign);
        (2, out);
        ( 2,
          let* c = gen_cond_expr ~depth:1 in
          let* then_b = gen_stmts ~depth:(depth - 1) ~len:2 in
          let* else_b = gen_stmts ~depth:(depth - 1) ~len:2 in
          Q.return (If (c, then_b, else_b)) );
        ( 1,
          (* bounded counting loop; one counter per nesting depth so an
             inner loop cannot reset an outer loop's counter *)
          let counter = Printf.sprintf "i%d" depth in
          let* bound = Q.int_range 1 5 in
          let* body = gen_stmts ~depth:(depth - 1) ~len:2 in
          Q.return
            (For
               ( Some (Assign (Lvar counter, Int_lit 0)),
                 Some (Binary (Cmp Mir.Cmp.Lt, Var counter, Int_lit bound)),
                 Some
                   (Assign
                      ( Lvar counter,
                        Binary (Arith Mir.Binop.Add, Var counter, Int_lit 1) )),
                 body )) );
      ]

and gen_stmts ~depth ~len =
  Q.list_size (Q.int_range 1 len) (gen_stmt ~depth)

let minic_ast : Ipds_minic.Ast.program Q.t =
  let open Ipds_minic.Ast in
  let ( let* ) m f = Q.bind m f in
  let* body = gen_stmts ~depth:3 ~len:6 in
  let* helper_body = gen_stmts ~depth:1 ~len:3 in
  let* call_helper = Q.bool in
  let* use_global = Q.bool in
  let decls =
    List.map
      (fun n -> { d_name = n; d_size = None })
      ([ "i1"; "i2"; "i3" ] @ scalar_names)
    @ [ { d_name = array_name; d_size = Some array_size } ]
  in
  (* the helper shares variable names (its own locals shadow), returns an
     int, and may write the global *)
  let helper =
    {
      f_name = "helper";
      f_params = [ "p" ];
      f_locals = decls;
      f_body =
        (if use_global then
           [ Assign (Lvar "gshared", Binary (Arith Mir.Binop.Add, Var "gshared", Var "p")) ]
         else [])
        @ helper_body
        @ [ Return (Some (Var "a")) ];
    }
  in
  let main_body =
    if call_helper then
      body @ [ Assign (Lvar "b", Call ("helper", [ Var "a" ])); Output (Var "b") ]
    else body
  in
  Q.return
    {
      p_globals = [ { d_name = "gshared"; d_size = None } ];
      p_funcs =
        [
          helper;
          { f_name = "main"; f_params = []; f_locals = decls; f_body = main_body };
        ];
    }

let minic_program : Mir.Program.t Q.t =
  Q.map Ipds_minic.Codegen.compile minic_ast

(* ---------- bitstream op generator ---------- *)

(* A serialization schedule for Core.Bitstream: fields of any legal
   width (0–62 inclusive, both endpoints weighted so every run hits
   them), packed back to back with no padding between them, as every
   format in the tree writes them.  The reader replays the same
   schedule. *)
type bits_op = Bits_field of int * int  (* width, value fitting in width *)

let bitstream_ops : bits_op list Q.t =
  let field =
    let* width = Q.oneof [ Q.return 0; Q.return 62; Q.int_range 0 62 ] in
    (* two chunks so high bits of wide fields are exercised *)
    let* lo = Q.int_bound 0x3FFFFFFF in
    let* hi = Q.int_bound 0xFFFFFFFF in
    let mask = if width = 0 then 0 else (1 lsl width) - 1 in
    Q.return (Bits_field (width, (lo lor (hi lsl 30)) land mask))
  in
  Q.list_size (Q.int_range 1 80) field

(* ---------- machine event generator ---------- *)

(* Arbitrary dynamic events for the serve-protocol codec tests: every
   kind, full-range ints (the wire codec must round-trip negatives and
   both int extremes exactly), and function names of assorted lengths
   including empty. *)
let wide_int : int Q.t =
  Q.oneof
    [
      Q.int_range (-1000) 1000;
      Q.int;
      Q.return min_int;
      Q.return max_int;
      Q.return 0;
      Q.return (-1);
    ]

let event : Ipds_machine.Event.t Q.t =
  let open Ipds_machine.Event in
  let* fname =
    Q.oneofl [ "main"; "aux"; "helper"; ""; "a_function_with_a_long_name" ]
  in
  let* iid = Q.int_range 0 10_000 in
  let* pc = wide_int in
  let* kind =
    Q.oneof
      [
        Q.return Alu;
        Q.map (fun addr -> Load { addr }) wide_int;
        Q.map (fun addr -> Store { addr }) wide_int;
        Q.map2
          (fun taken target_pc -> Branch { taken; target_pc })
          Q.bool wide_int;
        Q.map (fun target_pc -> Jump { target_pc }) wide_int;
        Q.map (fun callee -> Call { callee }) (Q.oneofl [ "main"; "aux"; "" ]);
        Q.return Ret;
        Q.return Input_read;
        Q.map (fun v -> Output_write v) wide_int;
        Q.map (fun skipped -> Fault_inject { skipped }) Q.bool;
      ]
  in
  Q.return { fname; iid; pc; kind }

(* What a [Branch_events] list decodes to on wire v2: only the
   checker's call/ret/branch events, with every field the checker does
   not read zeroed. *)
let wire_normal (evs : Ipds_machine.Event.t list) =
  let open Ipds_machine.Event in
  List.filter_map
    (fun e ->
      match e.kind with
      | Call _ | Ret -> Some { fname = ""; iid = 0; pc = 0; kind = e.kind }
      | Branch { taken; _ } ->
          Some { fname = ""; iid = 0; pc = e.pc; kind = Branch { taken; target_pc = 0 } }
      | _ -> None)
    evs

(* ---------- raw MIR generator ---------- *)

type mir_plan = {
  n_blocks : int;
  n_regs : int;
  seeds : int list;  (* instruction randomness, one per block *)
}

let mir_plan : mir_plan Q.t =
  let ( let* ) m f = Q.bind m f in
  let* n_blocks = Q.int_range 2 6 in
  let* n_regs = Q.int_range 3 6 in
  let* seeds = Q.list_size (Q.return n_blocks) Q.(int_bound 0xffffff) in
  Q.return { n_blocks; n_regs; seeds }

(* Deterministically expand a plan into a validated program. *)
let build_mir { n_blocks; n_regs; seeds } =
  let module B = Mir.Builder in
  let rng = Random.State.make (Array.of_list (n_blocks :: n_regs :: seeds)) in
  let rand n = Random.State.int rng n in
  let b = B.create () in
  B.declare_default_externs b;
  let g_scalar = B.global b "gx" in
  let g_arr = B.global b ~size:3 "garr" in
  (* a callee with its own memory traffic, called from main: exercises
     summaries, call pseudo-stores, and checker frame stacking *)
  B.func b "aux" ~nparams:1 (fun fb params ->
      let loc = B.local fb "auxloc" in
      let p0 =
        match params with
        | p :: _ -> p
        | [] -> assert false
      in
      B.store fb (Mir.Addr.Direct loc) (Mir.Operand.reg p0);
      (match rand 3 with
      | 0 ->
          (* global writer: faithful summaries must go conservative *)
          B.store fb (Mir.Addr.Direct g_scalar) (Mir.Operand.reg p0)
      | 1 ->
          (* param-relative arithmetic only *)
          let r = B.binop fb Mir.Binop.Add (Mir.Operand.reg p0) (Mir.Operand.imm 1) in
          B.store fb (Mir.Addr.Direct loc) (Mir.Operand.reg r)
      | _ -> ());
      let out = B.load fb (Mir.Addr.Direct loc) in
      let done_l = B.new_label fb "auxdone" in
      let more_l = B.new_label fb "auxmore" in
      B.branch fb Mir.Cmp.Lt out (Mir.Operand.imm (rand 10)) done_l more_l;
      B.set_block fb more_l;
      let r2 = B.load fb (Mir.Addr.Direct loc) in
      B.output fb (Mir.Operand.reg r2);
      B.ret fb (Some (Mir.Operand.reg r2));
      B.set_block fb done_l;
      B.ret fb (Some (Mir.Operand.reg out)));
  B.func b "main" ~nparams:0 (fun fb _ ->
      let x = B.local fb "x" in
      let arr = B.local fb ~size:4 "larr" in
      B.reserve_regs fb n_regs;
      let labels =
        Array.init n_blocks (fun i ->
            if i = 0 then B.entry_label fb else B.new_label fb (Printf.sprintf "b%d" i))
      in
      let reg () = Mir.Reg.make (rand n_regs) in
      let operand () =
        if rand 3 = 0 then Mir.Operand.imm (rand 20 - 5) else Mir.Operand.reg (reg ())
      in
      let addr () =
        match rand 5 with
        | 0 -> Mir.Addr.Direct x
        | 1 -> Mir.Addr.Direct g_scalar
        | 2 -> Mir.Addr.Index (arr, operand ())
        | 3 -> Mir.Addr.Index (g_arr, Mir.Operand.imm (rand 3))
        | _ -> Mir.Addr.Indirect (reg ())
      in
      let emit_random () =
        match rand 9 with
        | 0 -> B.emit fb (Mir.Op.Const (reg (), rand 30 - 10))
        | 1 -> B.emit fb (Mir.Op.Move (reg (), operand ()))
        | 2 ->
            let op = List.nth Mir.Binop.all (rand (List.length Mir.Binop.all)) in
            B.emit fb (Mir.Op.Binop (reg (), op, operand (), operand ()))
        | 3 -> B.emit fb (Mir.Op.Load (reg (), addr ()))
        | 4 -> B.emit fb (Mir.Op.Store (addr (), operand ()))
        | 5 -> B.emit fb (Mir.Op.Addr_of (reg (), (if rand 2 = 0 then arr else g_arr), operand ()))
        | 6 -> B.emit fb (Mir.Op.Input (reg (), 0))
        | 7 ->
            B.emit fb
              (Mir.Op.Call { dst = Some (reg ()); callee = "aux"; args = [ operand () ] })
        | _ -> B.emit fb (Mir.Op.Output (operand ()))
      in
      Array.iteri
        (fun i lbl ->
          if i > 0 then B.set_block fb lbl;
          let len = 1 + rand 5 in
          for _ = 1 to len do
            emit_random ()
          done;
          (* terminator *)
          match rand 5 with
          | 0 | 1 ->
              let cmp = List.nth Mir.Cmp.all (rand (List.length Mir.Cmp.all)) in
              B.branch fb cmp (reg ()) (Mir.Operand.imm (rand 16 - 4))
                labels.(rand n_blocks) labels.(rand n_blocks)
          | 2 -> B.ret fb (Some (operand ()))
          | 3 ->
              if i + 1 < n_blocks then B.jump fb labels.(i + 1)
              else B.ret fb None
          | _ -> B.jump fb labels.(rand n_blocks))
        labels;
      (* Blocks created but never entered (unused labels) would fail
         finish; the loop above enters every label. *)
      ());
  B.finish b

let mir_program : Mir.Program.t Q.t = Q.map build_mir mir_plan
