type proto_block = {
  pb_label : string;
  mutable pb_body : Op.t list;  (* reversed *)
  mutable pb_term : Terminator.t option;
  mutable pb_started : bool;
}

type fb = {
  fb_name : string;
  fb_prog : t;
  mutable fb_locals : Var.t list;  (* reversed *)
  mutable fb_regs : int;
  mutable fb_blocks : proto_block array;  (* grows *)
  mutable fb_nblocks : int;
  mutable fb_cur : int;  (* current block index, -1 if none open *)
}

and t = {
  mutable t_vars : int;
  mutable t_globals : Var.t list;  (* reversed *)
  mutable t_externs : (string * Extern.summary) list;  (* reversed *)
  mutable t_funcs : Func.t list;  (* reversed *)
}

type label = int

let create () = { t_vars = 0; t_globals = []; t_externs = []; t_funcs = [] }

let fresh_var t ?(size = 1) name storage =
  let v = Var.make ~id:t.t_vars ~name ~size ~storage in
  t.t_vars <- t.t_vars + 1;
  v

let global t ?size name =
  let v = fresh_var t ?size name Var.Global in
  t.t_globals <- v :: t.t_globals;
  v

let declare_extern t name summary =
  t.t_externs <- (name, summary) :: t.t_externs

let declare_default_externs t =
  List.iter (fun (n, s) -> declare_extern t n s) Extern.default_table

let local fb ?size name =
  let v = fresh_var fb.fb_prog ?size name Var.Local in
  fb.fb_locals <- v :: fb.fb_locals;
  v

let fresh fb =
  let r = Reg.make fb.fb_regs in
  fb.fb_regs <- fb.fb_regs + 1;
  r

let add_block fb name =
  let pb = { pb_label = name; pb_body = []; pb_term = None; pb_started = false } in
  if fb.fb_nblocks = Array.length fb.fb_blocks then begin
    let bigger = Array.make (max 8 (2 * fb.fb_nblocks)) pb in
    Array.blit fb.fb_blocks 0 bigger 0 fb.fb_nblocks;
    fb.fb_blocks <- bigger
  end;
  fb.fb_blocks.(fb.fb_nblocks) <- pb;
  fb.fb_nblocks <- fb.fb_nblocks + 1;
  fb.fb_nblocks - 1

let new_label fb name = add_block fb name
let entry_label (_ : fb) = 0
let in_block fb = fb.fb_cur >= 0
let reserve_regs fb n = if n > fb.fb_regs then fb.fb_regs <- n

let set_block fb lbl =
  if fb.fb_cur >= 0 then
    invalid_arg
      (Printf.sprintf "Builder.set_block: block %s of %s not terminated"
         fb.fb_blocks.(fb.fb_cur).pb_label fb.fb_name);
  let pb = fb.fb_blocks.(lbl) in
  if pb.pb_started then
    invalid_arg (Printf.sprintf "Builder.set_block: %s already built" pb.pb_label);
  pb.pb_started <- true;
  fb.fb_cur <- lbl

let current fb =
  if fb.fb_cur < 0 then
    invalid_arg (Printf.sprintf "Builder: no open block in %s" fb.fb_name);
  fb.fb_blocks.(fb.fb_cur)

let emit fb op =
  let pb = current fb in
  pb.pb_body <- op :: pb.pb_body

let terminate fb term =
  let pb = current fb in
  pb.pb_term <- Some term;
  fb.fb_cur <- -1

let const fb n =
  let r = fresh fb in
  emit fb (Op.Const (r, n));
  r

let binop fb op a b =
  let r = fresh fb in
  emit fb (Op.Binop (r, op, a, b));
  r

let load fb a =
  let r = fresh fb in
  emit fb (Op.Load (r, a));
  r

let store fb a o = emit fb (Op.Store (a, o))

let addr_of fb v i =
  let r = fresh fb in
  emit fb (Op.Addr_of (r, v, i));
  r

let call fb callee args =
  let r = fresh fb in
  emit fb (Op.Call { dst = Some r; callee; args });
  r

let call_void fb callee args = emit fb (Op.Call { dst = None; callee; args })

let input fb ch =
  let r = fresh fb in
  emit fb (Op.Input (r, ch));
  r

let output fb o = emit fb (Op.Output o)
let jump fb lbl = terminate fb (Terminator.Jump lbl)

let branch fb cmp lhs rhs if_true if_false =
  terminate fb (Terminator.Branch { cmp; lhs; rhs; if_true; if_false })

let ret fb o = terminate fb (Terminator.Return o)
let halt fb = terminate fb Terminator.Halt

let func t name ~nparams body =
  if List.exists (fun (f : Func.t) -> String.equal f.name name) t.t_funcs then
    invalid_arg (Printf.sprintf "Builder.func: duplicate function %s" name);
  let fb =
    {
      fb_name = name;
      fb_prog = t;
      fb_locals = [];
      fb_regs = nparams;
      fb_blocks = [||];
      fb_nblocks = 0;
      fb_cur = -1;
    }
  in
  let entry = add_block fb "entry" in
  set_block fb entry;
  let params = List.init nparams Reg.make in
  body fb params;
  if fb.fb_cur >= 0 then
    invalid_arg
      (Printf.sprintf "Builder.func: block %s of %s not terminated"
         fb.fb_blocks.(fb.fb_cur).pb_label name);
  (* Assign dense instruction ids block by block, terminators included. *)
  let next_iid = ref 0 in
  let blocks =
    Array.init fb.fb_nblocks (fun idx ->
        let pb = fb.fb_blocks.(idx) in
        let term =
          match pb.pb_term with
          | Some term -> term
          | None ->
              invalid_arg
                (Printf.sprintf "Builder.func: block %s of %s never built"
                   pb.pb_label name)
        in
        let ops = Array.of_list (List.rev pb.pb_body) in
        let body =
          Array.map
            (fun op ->
              let iid = !next_iid in
              incr next_iid;
              { Instr.iid; op })
            ops
        in
        let term_iid = !next_iid in
        incr next_iid;
        { Block.index = idx; label = pb.pb_label; body; term; term_iid })
  in
  let f =
    {
      Func.name;
      params;
      locals = List.rev fb.fb_locals;
      blocks;
      reg_count = fb.fb_regs;
      instr_count = !next_iid;
    }
  in
  t.t_funcs <- f :: t.t_funcs

let finish ?(main = "main") t =
  let program =
    {
      Program.funcs = List.rev t.t_funcs;
      globals = List.rev t.t_globals;
      externs = List.rev t.t_externs;
      main;
      var_count = t.t_vars;
    }
  in
  Validate.check_exn program;
  program
