type error = {
  context : string;
  message : string;
}

let pp_error ppf e = Format.fprintf ppf "%s: %s" e.context e.message

let check_func (p : Program.t) (f : Func.t) =
  let errs = ref [] in
  let err fmt =
    Format.kasprintf (fun message -> errs := { context = f.name; message } :: !errs) fmt
  in
  let nblocks = Array.length f.blocks in
  if nblocks = 0 then err "no blocks";
  (* ids seen so far, and whether each came where block order puts it *)
  let seen = Array.make (max f.instr_count 0) false in
  let nseen = ref 0 and walked = ref 0 and in_order = ref true in
  let check_iid iid =
    if iid <> !walked then in_order := false;
    incr walked;
    if iid < 0 || iid >= f.instr_count then err "instruction id %d out of range" iid
    else if seen.(iid) then err "duplicate instruction id %d" iid
    else begin
      seen.(iid) <- true;
      incr nseen
    end
  in
  let check_reg r =
    if Reg.index r >= f.reg_count then err "register r%d out of range" (Reg.index r)
  in
  (* var ids are unique program-wide, so scope is a set of ids *)
  let scope =
    let vars = f.locals @ p.globals in
    let top = List.fold_left (fun m (v : Var.t) -> max m (v.id + 1)) 0 vars in
    let s = Array.make top false in
    List.iter (fun (v : Var.t) -> s.(v.id) <- true) vars;
    s
  in
  let in_scope (v : Var.t) = v.id < Array.length scope && scope.(v.id) in
  let check_var v = if not (in_scope v) then err "variable %s not in scope" v.Var.name in
  let check_operand o = List.iter check_reg (Operand.regs o) in
  let check_addr = function
    | Addr.Direct v -> check_var v
    | Addr.Index (v, i) ->
        check_var v;
        check_operand i
    | Addr.Indirect r -> check_reg r
  in
  let check_target b = if b < 0 || b >= nblocks then err "block target %d out of range" b in
  Array.iteri
    (fun idx (b : Block.t) ->
      if b.index <> idx then err "block %s has index %d at position %d" b.label b.index idx;
      Array.iter
        (fun (i : Instr.t) ->
          check_iid i.iid;
          Option.iter check_reg (Op.def i.op);
          List.iter check_reg (Op.uses i.op);
          (match i.op with
          | Op.Load (_, a) | Op.Store (a, _) -> check_addr a
          | Op.Addr_of (_, v, _) -> check_var v
          | Op.Call { callee; _ } ->
              if
                (not (Program.is_defined p callee))
                && not (List.mem_assoc callee p.externs)
              then err "call to undeclared %s" callee
          | Op.Const _ | Op.Move _ | Op.Binop _ | Op.Input _ | Op.Output _ | Op.Nop ->
              ()))
        b.body;
      check_iid b.term_iid;
      List.iter check_reg (Terminator.uses b.term);
      List.iter check_target (Terminator.successors b.term))
    f.blocks;
  if !nseen <> f.instr_count then
    err "instruction ids not dense: %d seen, %d expected" !nseen f.instr_count
  else if !walked = f.instr_count && not !in_order then
    err "instruction ids not in block order";
  List.rev !errs

let check (p : Program.t) =
  let errs = ref [] in
  let err fmt =
    Format.kasprintf
      (fun message -> errs := { context = "program"; message } :: !errs)
      fmt
  in
  if not (Program.is_defined p p.main) then err "main function %s undefined" p.main;
  let names = List.map (fun (f : Func.t) -> f.name) p.funcs in
  let rec dups = function
    | [] -> ()
    | n :: rest -> if List.mem n rest then err "duplicate function %s" n else dups rest
  in
  dups names;
  List.concat_map (check_func p) p.funcs @ List.rev !errs

let check_exn p =
  match check p with
  | [] -> ()
  | e :: _ -> invalid_arg (Format.asprintf "Validate: %a" pp_error e)
