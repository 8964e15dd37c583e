module Mir = Ipds_mir

type t = {
  regs : (string, Pt_set.t array) Hashtbl.t;
  escaped : Pt_set.t;
  address_taken : Mir.Var.Set.t;
}

(* Pparam elements are context-dependent; once a pointer escapes into
   memory its original frame is unknowable, so escaping parameters widen
   to [unknown]. *)
let widen_params (s : Pt_set.t) =
  if Pt_set.Int_set.is_empty s.params then s
  else
    {
      s with
      params = Pt_set.Int_set.empty;
      unknown = true;
    }

let compute (p : Mir.Program.t) =
  let regs : (string, Pt_set.t array) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (f : Mir.Func.t) ->
      let arr = Array.make (max 1 f.reg_count) Pt_set.empty in
      List.iteri (fun i r -> arr.(Mir.Reg.index r) <- Pt_set.of_param i) f.params;
      Hashtbl.replace regs f.name arr)
    p.funcs;
  let escaped = ref Pt_set.empty in
  let address_taken = ref Mir.Var.Set.empty in
  let changed = ref true in
  let update arr r s =
    let idx = Mir.Reg.index r in
    let joined = Pt_set.union arr.(idx) s in
    if not (Pt_set.equal joined arr.(idx)) then begin
      arr.(idx) <- joined;
      changed := true
    end
  in
  let escape s =
    let widened = widen_params s in
    let joined = Pt_set.union !escaped widened in
    if not (Pt_set.equal joined !escaped) then begin
      escaped := joined;
      changed := true
    end
  in
  let operand_pts arr (o : Mir.Operand.t) =
    match o with
    | Mir.Operand.Reg r -> arr.(Mir.Reg.index r)
    | Mir.Operand.Imm _ -> Pt_set.empty
  in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Mir.Func.t) ->
        let arr = Hashtbl.find regs f.name in
        Mir.Func.iter_instrs f (fun _iid op ->
            match op with
            | Mir.Op.Addr_of (r, v, _) ->
                if not (Mir.Var.Set.mem v !address_taken) then begin
                  address_taken := Mir.Var.Set.add v !address_taken;
                  changed := true
                end;
                update arr r (Pt_set.of_var v)
            | Mir.Op.Move (r, o) -> update arr r (operand_pts arr o)
            | Mir.Op.Binop (r, _, a, b) ->
                update arr r (Pt_set.union (operand_pts arr a) (operand_pts arr b))
            | Mir.Op.Load (r, _) -> update arr r !escaped
            | Mir.Op.Store (_, o) -> escape (operand_pts arr o)
            | Mir.Op.Call { dst; callee; args } ->
                (* Arguments may be retained by a defined callee and
                   stored; its own Store instructions account for that
                   through the callee's [Pparam] escape.  Extern callees
                   are defined not to retain pointers (their summaries
                   bound their writes), with the exception of
                   [Writes_anything] externs, which may do anything. *)
                (if not (Mir.Program.is_defined p callee) then
                   match Mir.Program.extern_summary p callee with
                   | Mir.Extern.Writes_anything ->
                       List.iter (fun a -> escape (operand_pts arr a)) args
                   | Mir.Extern.Pure | Mir.Extern.Writes_args _ -> ());
                (match dst with
                | Some r ->
                    if Mir.Program.is_defined p callee then
                      update arr r Pt_set.unknown
                | None -> ())
            | Mir.Op.Const _ | Mir.Op.Input _ | Mir.Op.Output _ | Mir.Op.Nop -> ()))
      p.funcs
  done;
  { regs; escaped = !escaped; address_taken = !address_taken }

let reg t ~fname r =
  match Hashtbl.find_opt t.regs fname with
  | Some arr -> arr.(Mir.Reg.index r)
  | None -> invalid_arg (Printf.sprintf "Points_to.reg: unknown function %s" fname)

let escaped t = t.escaped
let address_taken t = t.address_taken

(* The slice of the whole-program solution that one function's analysis
   can observe: its own register points-to sets plus the program-wide
   escape set and address-taken set, rendered as a preimage for
   content-addressed per-function caching — two programs whose slices
   agree give the function identical alias answers. *)
let func_fingerprint buf t ~fname =
  (match Hashtbl.find_opt t.regs fname with
  | None -> Buffer.add_string buf "no-regs"
  | Some arr ->
      Array.iter
        (fun s ->
          Pt_set.render buf s;
          Buffer.add_char buf ';')
        arr);
  Buffer.add_string buf "|escaped:";
  Pt_set.render buf t.escaped;
  Buffer.add_string buf "|taken:";
  Mir.Var.Set.iter
    (fun v ->
      Buffer.add_string buf (string_of_int v.Mir.Var.id);
      Buffer.add_char buf ',')
    t.address_taken
