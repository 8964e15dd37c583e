module Ast = Ipds_minic.Ast
module B = Ipds_mir.Binop
module C = Ipds_mir.Cmp
module Pool = Ipds_parallel.Pool

type spec = {
  helpers : int;
  dispatch : int;
  max_depth : int;
}

let default_spec = { helpers = 3; dispatch = 5; max_depth = 3 }

(* A run report lists every registered metric, so [gen.programs] is
   registered by the first generated program: a binary that links the
   generator but generates nothing reports no gen.* metric. *)
let m_programs = Atomic.make None

let count_program () =
  Ipds_obs.Registry.incr
    (match Atomic.get m_programs with
    | Some c -> c
    | None ->
        let c = Ipds_obs.Registry.counter "gen.programs" in
        Atomic.set m_programs (Some c);
        c)

(* All generation state for one program.  [scalars] are readable,
   [targets] assignable — loop counters and [main]'s bookkeeping
   variables appear only in the former, which is what makes every
   generated loop provably bounded. *)
type ctx = {
  rng : Random.State.t;
  spec : spec;
  scalars : string list;
  targets : string list;
  arrays : (string * int) list;  (* name, power-of-two size *)
  callees : (string * int) list;  (* helper name, arity *)
  budget : int ref;
  nesting : int;  (* enclosing loop depth at the generation point *)
  call_quota : int ref;  (* helper-call sites left for this function *)
  call_nesting_max : int;  (* deepest loop nesting allowed to call helpers *)
}

let pick rng l = List.nth l (Random.State.int rng (List.length l))
let range rng lo hi = lo + Random.State.int rng (hi - lo + 1)

let lit rng =
  Ast.Int_lit
    (match Random.State.int rng 3 with
    | 0 -> Random.State.int rng 8
    | 1 -> Random.State.int rng 256
    | _ -> Random.State.int rng 65536)

let arith = [ B.Add; B.Sub; B.Mul; B.Div; B.Rem; B.And; B.Or; B.Xor; B.Shl; B.Shr ]
let cmps = [ C.Lt; C.Le; C.Gt; C.Ge; C.Eq; C.Ne ]

(* Expressions are unconstrained except for memory: the machine's
   arithmetic is total (division by zero yields 0, shifts clamp), so
   only array subscripts need care — they are always masked to the
   power-of-two size. *)
let rec expr ctx depth =
  let rng = ctx.rng in
  if depth <= 0 then leaf ctx
  else
    match Random.State.int rng 8 with
    | 0 | 1 -> leaf ctx
    | 2 | 3 | 4 ->
        Ast.Binary (Ast.Arith (pick rng arith), expr ctx (depth - 1), expr ctx (depth - 1))
    | 5 when ctx.arrays <> [] -> array_read ctx
    | 6 -> call_value ctx (depth - 1)
    | _ -> Ast.Binary (Ast.Arith B.Add, leaf ctx, leaf ctx)

and leaf ctx =
  match Random.State.int ctx.rng 5 with
  | 0 | 1 -> lit ctx.rng
  | 2 -> Ast.Var (pick ctx.rng ctx.scalars)
  | 3 -> Ast.Input 0
  | _ -> if ctx.arrays = [] then lit ctx.rng else array_read ctx

and array_read ctx =
  let name, size = pick ctx.rng ctx.arrays in
  Ast.Index (name, masked_index ctx size)

and masked_index ctx size =
  Ast.Binary (Ast.Arith B.And, expr ctx 1, Ast.Int_lit (size - 1))

and call_value ctx depth =
  let rng = ctx.rng in
  let extern () =
    match ctx.arrays with
    | [] -> lit rng
    | arrays -> (
        let name, size = pick rng arrays in
        let base = Ast.Addr_of (name, Some (Ast.Int_lit 0)) in
        match Random.State.int rng 3 with
        | 0 -> Ast.Call ("checksum", [ base; Ast.Int_lit (range rng 1 size) ])
        | 1 -> Ast.Call ("hash_pw", [ base; Ast.Int_lit (range rng 1 size) ])
        | _ -> Ast.Call ("strlen", [ base ]))
  in
  (* Helper calls are what make worst-case cost multiplicative (loops
     around calls around loops...), so they are rationed: a few call
     sites per function, and never under deep loop nesting. *)
  let helpers_ok =
    ctx.callees <> [] && !(ctx.call_quota) > 0
    && ctx.nesting <= ctx.call_nesting_max
  in
  if (not helpers_ok) || Random.State.bool rng then extern ()
  else begin
    decr ctx.call_quota;
    let name, arity = pick rng ctx.callees in
    Ast.Call (name, List.init arity (fun _ -> expr ctx depth))
  end

let cond ctx depth =
  let cmp () =
    Ast.Binary (Ast.Cmp (pick ctx.rng cmps), expr ctx depth, expr ctx depth)
  in
  match Random.State.int ctx.rng 6 with
  | 0 -> Ast.Binary (Ast.And, cmp (), cmp ())
  | 1 -> Ast.Binary (Ast.Or, cmp (), cmp ())
  | 2 -> Ast.Unary (Ast.Not, cmp ())
  | _ -> cmp ()

(* [loop] is the innermost enclosing loop construct.  [continue] is
   only ever emitted under a [`For] — in a count-down [while] it would
   skip the decrement and spin forever. *)
type loop = No_loop | In_for | In_while

let effect_call ctx =
  let rng = ctx.rng in
  match ctx.arrays with
  | arrays when arrays <> [] && Random.State.int rng 3 = 0 -> (
      let name, size = pick rng arrays in
      let base = Ast.Addr_of (name, Some (Ast.Int_lit 0)) in
      match Random.State.int rng 3 with
      | 0 -> Ast.Expr (Ast.Call ("memset", [ base; expr ctx 1; Ast.Int_lit (range rng 1 size) ]))
      | 1 -> Ast.Expr (Ast.Call ("read_line", [ base; Ast.Int_lit (range rng 1 size) ]))
      | _ -> Ast.Expr (Ast.Call ("send", [ Ast.Int_lit 0; expr ctx 1 ]))
    )
  | _ ->
      if Random.State.bool rng then
        Ast.Expr (Ast.Call ("log_msg", [ expr ctx 1; expr ctx 1 ]))
      else Ast.Expr (Ast.Call ("send", [ Ast.Int_lit 0; expr ctx 1 ]))

let rec stmts ctx ~depth ~loop n_hint =
  let n = max 1 (min n_hint (max 1 !(ctx.budget))) in
  List.concat (List.init n (fun _ -> stmt_one ctx ~depth ~loop))

(* Returns a list because the count-down while needs its counter
   initialization alongside the loop itself. *)
and stmt_one ctx ~depth ~loop =
  let rng = ctx.rng in
  decr ctx.budget;
  let simple () =
    match Random.State.int rng 6 with
    | 0 | 1 -> [ Ast.Assign (Ast.Lvar (pick rng ctx.targets), expr ctx 2) ]
    | 2 when ctx.arrays <> [] ->
        let name, size = pick rng ctx.arrays in
        [ Ast.Assign (Ast.Lindex (name, masked_index ctx size), expr ctx 2) ]
    | 3 -> [ Ast.Output (expr ctx 2) ]
    | 4 -> [ effect_call ctx ]
    | _ -> [ Ast.Assign (Ast.Lvar (pick rng ctx.targets), expr ctx 2) ]
  in
  if depth <= 0 || !(ctx.budget) <= 0 then simple ()
  else
    match Random.State.int rng 10 with
    | 0 | 1 ->
        let then_b = stmts ctx ~depth:(depth - 1) ~loop (range rng 1 3) in
        let else_b =
          if Random.State.bool rng then stmts ctx ~depth:(depth - 1) ~loop (range rng 1 2)
          else []
        in
        [ Ast.If (cond ctx 1, then_b, else_b) ]
    | 2 ->
        let k = Printf.sprintf "k%d" depth in
        let bound = range rng 2 6 in
        let body =
          stmts
            { ctx with nesting = ctx.nesting + 1 }
            ~depth:(depth - 1) ~loop:In_for (range rng 1 3)
        in
        [
          Ast.For
            ( Some (Ast.Assign (Ast.Lvar k, Ast.Int_lit 0)),
              Some (Ast.Binary (Ast.Cmp C.Lt, Ast.Var k, Ast.Int_lit bound)),
              Some
                (Ast.Assign
                   (Ast.Lvar k, Ast.Binary (Ast.Arith B.Add, Ast.Var k, Ast.Int_lit 1))),
              body );
        ]
    | 3 ->
        let w = Printf.sprintf "w%d" depth in
        let bound = range rng 2 4 in
        let body =
          stmts
            { ctx with nesting = ctx.nesting + 1 }
            ~depth:(depth - 1) ~loop:In_while (range rng 1 2)
        in
        [
          Ast.Assign (Ast.Lvar w, Ast.Int_lit bound);
          Ast.While
            ( Ast.Binary (Ast.Cmp C.Gt, Ast.Var w, Ast.Int_lit 0),
              body
              @ [
                  Ast.Assign
                    (Ast.Lvar w, Ast.Binary (Ast.Arith B.Sub, Ast.Var w, Ast.Int_lit 1));
                ] );
        ]
    | 4 when loop <> No_loop ->
        [ Ast.If (cond ctx 1, [ Ast.Break ], []) ]
    | 5 when loop = In_for ->
        [ Ast.If (cond ctx 1, [ Ast.Continue ], []) ]
    | _ -> simple ()

(* Loop counters for every depth a function body can nest to, plus the
   function's scratch accumulator.  They are declared in every
   function and excluded from assignment targets. *)
let counter_locals max_depth =
  List.concat
    (List.init max_depth (fun i ->
         [
           { Ast.d_name = Printf.sprintf "k%d" (i + 1); d_size = None };
           { Ast.d_name = Printf.sprintf "w%d" (i + 1); d_size = None };
         ]))

(* Helper bodies get a single loop level and may call earlier helpers
   only outside their loops (and at most twice): with [for] bounds <= 6
   and [while] bounds <= 4, cost(svc_i) <= ~400 + 2*cost(svc_{i-1})
   interpreter steps, so a chain of three helpers stays under ~3k. *)
let helper_func spec rng ~globals ~arrays ~callees idx =
  let name = Printf.sprintf "svc%d" idx in
  let arity = range rng 1 2 in
  let params = List.init arity (Printf.sprintf "p%d") in
  let depth = 1 in
  let ctx =
    {
      rng;
      spec;
      scalars = params @ ("t" :: globals);
      targets = "t" :: globals;
      arrays;
      callees;
      budget = ref (range rng 4 9);
      nesting = 0;
      call_quota = ref 2;
      call_nesting_max = 0;
    }
  in
  let body = stmts ctx ~depth ~loop:No_loop (range rng 2 4) in
  let f =
    {
      Ast.f_name = name;
      f_params = params;
      f_locals = { Ast.d_name = "t"; d_size = None } :: counter_locals depth;
      f_body = (Ast.Assign (Ast.Lvar "t", Ast.Int_lit 0) :: body)
               @ [ Ast.Return (Some (expr ctx 2)) ];
    }
  in
  (f, (name, arity))

(* [main]'s dispatch arms live inside the session [for] (nesting 1):
   helper calls are allowed there but not in deeper loops, so one
   request costs at most a few helper chains (~3k steps each) plus the
   arm's own bounded loops — with <= 12 requests per session the whole
   run stays around 1e5 steps, well inside the interpreter's default
   500k budget. *)
let main_func spec rng ~index ~globals ~arrays ~callees =
  let depth = spec.max_depth in
  let ctx =
    {
      rng;
      spec;
      scalars = "acc" :: "r" :: "c" :: "nreq" :: globals;
      targets = "acc" :: globals;
      arrays;
      callees;
      budget = ref (range rng 14 26);
      nesting = 1;
      call_quota = ref 3;
      call_nesting_max = 1;
    }
  in
  (* array init: tab[i] = (i * c) & 255 over the whole array *)
  let init_loops =
    List.map
      (fun (name, size) ->
        let mult = range rng 1 31 in
        Ast.For
          ( Some (Ast.Assign (Ast.Lvar "k1", Ast.Int_lit 0)),
            Some (Ast.Binary (Ast.Cmp C.Lt, Ast.Var "k1", Ast.Int_lit size)),
            Some
              (Ast.Assign
                 (Ast.Lvar "k1", Ast.Binary (Ast.Arith B.Add, Ast.Var "k1", Ast.Int_lit 1))),
            [
              Ast.Assign
                ( Ast.Lindex (name, Ast.Var "k1"),
                  Ast.Binary
                    ( Ast.Arith B.And,
                      Ast.Binary (Ast.Arith B.Mul, Ast.Var "k1", Ast.Int_lit mult),
                      Ast.Int_lit 255 ) );
            ] ))
      arrays
  in
  (* session loop: a bounded number of requests, dispatched on c *)
  let nmod = range rng 4 8 and nbase = range rng 2 4 in
  let narms = range rng 2 (max 2 spec.dispatch) in
  let arms =
    List.init narms (fun _ ->
        let body = stmts ctx ~depth:(depth - 1) ~loop:In_for (range rng 1 3) in
        if Random.State.int rng 2 = 0 && callees <> [] then
          let name, arity = pick rng callees in
          Ast.Assign
            ( Ast.Lvar "acc",
              Ast.Binary
                ( Ast.Arith B.Add,
                  Ast.Var "acc",
                  Ast.Call (name, List.init arity (fun _ -> expr ctx 1)) ) )
          :: body
        else body)
  in
  let rec chain i = function
    | [] -> []
    | [ last ] -> last
    | arm :: rest ->
        [
          Ast.If
            ( Ast.Binary (Ast.Cmp C.Eq, Ast.Var "c", Ast.Int_lit i),
              arm,
              chain (i + 1) rest );
        ]
  in
  let session =
    Ast.For
      ( Some (Ast.Assign (Ast.Lvar "r", Ast.Int_lit 0)),
        Some (Ast.Binary (Ast.Cmp C.Lt, Ast.Var "r", Ast.Var "nreq")),
        Some (Ast.Assign (Ast.Lvar "r", Ast.Binary (Ast.Arith B.Add, Ast.Var "r", Ast.Int_lit 1))),
        Ast.Assign
          (Ast.Lvar "c", Ast.Binary (Ast.Arith B.Rem, Ast.Input 0, Ast.Int_lit narms))
        :: chain 0 arms )
  in
  {
    Ast.f_name = "main";
    f_params = [];
    f_locals =
      [
        { Ast.d_name = "acc"; d_size = None };
        { Ast.d_name = "r"; d_size = None };
        { Ast.d_name = "c"; d_size = None };
        { Ast.d_name = "nreq"; d_size = None };
      ]
      @ counter_locals depth;
    f_body =
      (* version banner: stamps the population index into the program,
         so members are pairwise distinct by construction *)
      Ast.Output (Ast.Int_lit (1000 + index))
      :: init_loops
      @ [
          Ast.Assign (Ast.Lvar "acc", Ast.Int_lit 0);
          Ast.Assign
            ( Ast.Lvar "nreq",
              Ast.Binary
                ( Ast.Arith B.Add,
                  Ast.Binary (Ast.Arith B.Rem, Ast.Input 0, Ast.Int_lit nmod),
                  Ast.Int_lit nbase ) );
          session;
          Ast.Output (Ast.Var "acc");
          Ast.Return (Some (Ast.Int_lit 0));
        ];
  }

let ast ?(spec = default_spec) ~seed ~index () =
  let rng = Random.State.make [| seed; index; 0x51f15eed |] in
  let nglobals = range rng 2 4 in
  let globals = List.init nglobals (Printf.sprintf "g%d") in
  let narrays = range rng 1 2 in
  let arrays =
    List.init narrays (fun i ->
        (Printf.sprintf "tab%d" i, pick rng [ 4; 8; 16 ]))
  in
  let nhelpers = range rng 1 (max 1 spec.helpers) in
  let funcs, callees =
    List.fold_left
      (fun (funcs, callees) i ->
        let f, callee = helper_func spec rng ~globals ~arrays ~callees i in
        (f :: funcs, callee :: callees))
      ([], []) (List.init nhelpers Fun.id)
  in
  let main = main_func spec rng ~index ~globals ~arrays ~callees in
  count_program ();
  {
    Ast.p_globals =
      List.map (fun g -> { Ast.d_name = g; d_size = None }) globals
      @ List.map (fun (a, size) -> { Ast.d_name = a; d_size = Some size }) arrays;
    p_funcs = List.rev funcs @ [ main ];
  }

let source ?spec ~seed ~index () = Printer.program (ast ?spec ~seed ~index ())
let compile ?spec ~seed ~index () = Ipds_minic.Minic.compile (source ?spec ~seed ~index ())

let population ?spec ?pool ~seed ~count () =
  let chunk = 32 in
  let nchunks = (count + chunk - 1) / chunk in
  Pool.map' pool
    (fun ci ->
      List.init
        (min chunk (count - (ci * chunk)))
        (fun j -> source ?spec ~seed ~index:((ci * chunk) + j) ()))
    (List.init nchunks Fun.id)
  |> List.concat
