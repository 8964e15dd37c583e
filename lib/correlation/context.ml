module Mir = Ipds_mir
module Alias = Ipds_alias

type t = {
  program : Mir.Program.t;
  func : Mir.Func.t;
  cfg : Ipds_cfg.Cfg.t;
  feas : Ipds_cfg.Feasibility.t;
  pgraph : Ipds_cfg.Point_graph.t;
  rdefs : Ipds_dataflow.Reaching_defs.t;
  access : Alias.Access.t;
  may_def_of : Alias.Access.target array;
}

type program_wide = {
  prog : Mir.Program.t;
  points_to : Alias.Points_to.t;
  summaries : string -> Alias.Summary.t;
}

let prepare ?(mode = `Faithful) prog =
  let points_to = Alias.Points_to.compute prog in
  let summaries = Alias.Summary.compute prog points_to ~mode in
  { prog; points_to; summaries }

let for_func ?feas pw (func : Mir.Func.t) =
  let cfg = Ipds_cfg.Cfg.make func in
  let feas =
    match feas with Some f -> f | None -> Ipds_cfg.Feasibility.full cfg
  in
  let pgraph =
    Ipds_cfg.Point_graph.make
      ~branch_ok:(Ipds_cfg.Feasibility.branch_ok feas)
      func
  in
  let rdefs = Ipds_dataflow.Reaching_defs.compute ~feas cfg in
  let access = Alias.Access.make pw.prog pw.points_to ~summaries:pw.summaries func in
  let may_def_of = Array.make func.instr_count Alias.Access.No_target in
  Mir.Func.iter_instrs func (fun iid op -> may_def_of.(iid) <- Alias.Access.may_defs access op);
  { program = pw.prog; func; cfg; feas; pgraph; rdefs; access; may_def_of }

(* Everything one function's analysis reads from the program-wide
   preparation: its slice of the points-to solution and the summaries of
   its callees (the only summaries [Access] consults for it).  Also
   covers the program-wide variable numbering, which cell identity
   depends on.  Editing a function without disturbing any of these
   leaves every other function's digest — and cached analysis — valid.
   The result is the preimage itself, NUL-separated (no part holds a
   NUL); {!Ipds_core.System.func_digest} hashes it once. *)
let slice_fingerprint pw (func : Mir.Func.t) =
  let callees = ref [] in
  Mir.Func.iter_instrs func (fun _ op ->
      match op with
      | Mir.Op.Call { callee; _ } ->
          if not (List.mem callee !callees) then callees := callee :: !callees
      | Mir.Op.Const _ | Mir.Op.Move _ | Mir.Op.Binop _ | Mir.Op.Load _
      | Mir.Op.Store _ | Mir.Op.Addr_of _ | Mir.Op.Input _ | Mir.Op.Output _
      | Mir.Op.Nop ->
          ());
  let buf = Buffer.create 1024 in
  Alias.Points_to.func_fingerprint buf pw.points_to ~fname:func.Mir.Func.name;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf (string_of_int pw.prog.Mir.Program.var_count);
  List.iter
    (fun c ->
      Buffer.add_char buf '\x00';
      Buffer.add_string buf c;
      Buffer.add_char buf '=';
      Alias.Summary.fingerprint buf (pw.summaries c))
    (List.sort String.compare !callees);
  Buffer.contents buf

let kills_of_cell t cell =
  let out = ref [] in
  Array.iteri
    (fun iid target ->
      if Alias.Access.may_touch target cell then out := iid :: !out)
    t.may_def_of;
  List.rev !out
