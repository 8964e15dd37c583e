module Mir = Ipds_mir
module Alias = Ipds_alias
module Range = Ipds_range
module Pg = Ipds_cfg.Point_graph
module Region = Ipds_cfg.Region
module Cell = Alias.Cell

type edge = int * bool

type result = {
  func : Mir.Func.t;
  depends : Depend.t list;
  checked : int list;
  edge_actions : (edge * (int * Action.t) list) list;
  entry_actions : (int * Action.t) list;
}

type precision =
  | Off
  | Refine of { cap : int }

type options = {
  store_load : bool;
  load_load : bool;
  affine_tracing : bool;
  summary_mode : Alias.Summary.mode;
  precision : precision;
}

let default_options =
  {
    store_load = true;
    load_load = true;
    affine_tracing = true;
    summary_mode = `Faithful;
    precision = Off;
  }

let default_refine_cap = 4
let precision_on = Refine { cap = default_refine_cap }

(* [Off] must render exactly as the pre-precision fingerprint did: the
   per-function digests, store keys and artifact bytes of a [--precision
   off] build are byte-identical to a build that predates the refine
   pass.  Enabling precision appends a component, so it behaves like any
   other analysis-config change: a clean cache miss. *)
let options_fingerprint o =
  let base =
    Printf.sprintf "store_load=%b;load_load=%b;affine=%b;summary=%s" o.store_load
      o.load_load o.affine_tracing
      (match o.summary_mode with
      | `Faithful -> "faithful"
      | `Precise_globals -> "precise-globals")
  in
  match o.precision with
  | Off -> base
  | Refine { cap } -> Printf.sprintf "%s;precision=refine;cap=%d" base cap

(* ---------- Working state ---------- *)

type fact = {
  pred : Range.Pred.t;
  anchor : int;  (** point P at which the fact is established *)
  written : bool;  (** a store in the current region produced it *)
}

type cell_state =
  | Known of fact
  | Killed

(* The committed branch's tested value, for pinning stores in its region:
   tested = affine(value produced by def_iid). *)
type pin = {
  pin_def : int;
  pin_affine : Range.Cond.affine;
  pin_cmp : Mir.Cmp.t;
  pin_konst : int;
  pin_taken : bool;
}

(* Query memos, keyed by [p * n + a] over the graph's [n] points. *)
module Memo = Hashtbl.Make (Int)

type st = {
  ctx : Context.t;
  opts : options;
  mutable kills_cache : int list Cell.Map.t;
  (* reach_after p avoiding a: keyed (p, a) *)
  reach_cache : bool array Memo.t;
  (* co_reach p avoiding a: keyed (p, a) *)
  coreach_cache : bool array Memo.t;
  (* reach_after d avoiding d and s: keyed (d, s) *)
  intercept_cache : bool array Memo.t;
  (* every exact-target store (s, cell, traced stored operand), in
     instruction order: traced once per function, not per edge *)
  stores : (int * Cell.t * Trace.source) list Lazy.t;
}

let kills_of st cell =
  match Cell.Map.find_opt cell st.kills_cache with
  | Some k -> k
  | None ->
      let k = Context.kills_of_cell st.ctx cell in
      st.kills_cache <- Cell.Map.add cell k st.kills_cache;
      k

let memo st cache p a query =
  let key = (p * Pg.n_points st.ctx.Context.pgraph) + a in
  match Memo.find_opt cache key with
  | Some marks -> marks
  | None ->
      let marks = query st.ctx.Context.pgraph in
      Memo.replace cache key marks;
      marks

let reach_from_after st p ~avoid =
  memo st st.reach_cache p avoid (fun pg -> Pg.reach_after pg p ~avoid)

let reach_from_def st d ~avoid =
  memo st st.intercept_cache d avoid (fun pg -> Pg.reach_after pg ~also:d d ~avoid)

let coreach_to st p ~avoid =
  memo st st.coreach_cache p avoid (fun pg -> Pg.co_reach pg p ~avoid)

(* No may-kill of [cell] (other than [exempt]) can execute strictly
   between [src] and [dst] on any path that does not revisit [src]. *)
let kill_free st ~cell ~src ~dst ~exempt =
  let reach = reach_from_after st src ~avoid:src in
  let coreach = coreach_to st dst ~avoid:src in
  not
    (List.exists
       (fun k -> k <> exempt && k <> src && reach.(k) && coreach.(k))
       (kills_of st cell))

(* ---------- Test-implied facts at the commit of edge (bs, d) ---------- *)

let pin_of st bs =
  let f = st.ctx.Context.func in
  match Mir.Func.location f bs with
  | Mir.Func.Term b -> (
      match f.blocks.(b).Mir.Block.term with
      | Mir.Terminator.Branch { cmp; lhs; rhs; _ } -> (
          let s_lhs = Trace.reg st.ctx ~at:bs lhs in
          let s_rhs = Trace.operand st.ctx ~at:bs rhs in
          let mk def_iid affine cmp konst taken =
            if
              st.opts.affine_tracing
              || (affine.Range.Cond.scale = 1 && affine.Range.Cond.offset = 0)
            then
              Some
                {
                  pin_def = def_iid;
                  pin_affine = affine;
                  pin_cmp = cmp;
                  pin_konst = konst;
                  pin_taken = taken;
                }
            else None
          in
          fun ~taken ->
            match s_lhs, s_rhs with
            | Trace.Val { def_iid; affine }, Trace.Const k ->
                mk def_iid affine cmp k taken
            | Trace.Const k, Trace.Val { def_iid; affine } ->
                mk def_iid affine (Mir.Cmp.swap cmp) k taken
            | (Trace.Val _ | Trace.Const _ | Trace.Opaque), _ -> None)
      | Mir.Terminator.Jump _ | Mir.Terminator.Return _ | Mir.Terminator.Halt ->
          fun ~taken:_ -> None)
  | Mir.Func.Body _ -> fun ~taken:_ -> None

(* The value [pin] constrains, as a predicate, when the edge commits. *)
let pin_pred pin =
  Range.Cond.value_pred pin.pin_affine pin.pin_cmp pin.pin_konst ~taken:pin.pin_taken

let usable_affine st (a : Range.Cond.affine) =
  st.opts.affine_tracing || (a.Range.Cond.scale = 1 && a.Range.Cond.offset = 0)

(* Load–load: the branch itself anchors at a load of [cell]; if nothing can
   have overwritten the cell since that load, the committed direction pins
   the cell's current content. *)
let own_load_fact st dep ~taken =
  if not st.opts.load_load then None
  else if not (usable_affine st dep.Depend.affine) then None
  else if
    kill_free st ~cell:dep.Depend.cell ~src:dep.Depend.load_iid
      ~dst:dep.Depend.branch_iid ~exempt:dep.Depend.load_iid
  then
    Some
      ( dep.Depend.cell,
        {
          pred = Depend.taken_pred dep ~taken;
          anchor = dep.Depend.branch_iid;
          written = false;
        } )
  else None

(* Store–load: a store put the very value the branch tests into [c_s]; the
   committed direction pins the stored value, hence the cell. *)
let store_facts st ~bs pin =
  if not st.opts.store_load then []
  else
    match pin with
    | None -> []
    | Some pin ->
        List.fold_left
          (fun facts (s, c_s, src) ->
            match src with
            | Trace.Val { def_iid = d; affine = a_s }
              when d = pin.pin_def && usable_affine st a_s ->
                (* (a) every pin-def-free path from the def to the
                   branch passes the store; *)
                let intercepts = not (reach_from_def st pin.pin_def ~avoid:s).(bs) in
                (* (b) the def does not re-execute strictly between
                   the store and the branch; *)
                let reach_s = reach_from_after st s ~avoid:s in
                let coreach_bs = coreach_to st bs ~avoid:s in
                let def_quiet =
                  s = pin.pin_def
                  || not (reach_s.(pin.pin_def) && coreach_bs.(pin.pin_def))
                in
                (* (c) nothing overwrites the cell between store
                   and branch. *)
                let quiet = kill_free st ~cell:c_s ~src:s ~dst:bs ~exempt:s in
                if intercepts && def_quiet && quiet then
                  ( c_s,
                    {
                      pred = Range.Cond.apply a_s (pin_pred pin);
                      anchor = bs;
                      written = false;
                    } )
                  :: facts
                else facts
            | Trace.Val _ | Trace.Const _ | Trace.Opaque -> facts)
          [] (Lazy.force st.stores)

(* ---------- Region walk ---------- *)

type walk_state = {
  mutable cells : cell_state Cell.Map.t;
  mutable killed_vars : Mir.Var.Set.t;
  mutable executed : Ipds_alias.Pt_set.Int_set.t;
}

let kill_cell ws c = ws.cells <- Cell.Map.add c Killed ws.cells

let kill_vars ws vs =
  ws.killed_vars <- Mir.Var.Set.union ws.killed_vars vs;
  ws.cells <-
    Cell.Map.mapi
      (fun (c : Cell.t) state ->
        if Mir.Var.Set.mem c.var vs then Killed else state)
      ws.cells

let set_fact ws c fact = ws.cells <- Cell.Map.add c (Known fact) ws.cells

let walk_region st ~pin ~(seed : (Cell.t * fact) list) (region : Region.t) =
  let ws =
    {
      cells = Cell.Map.empty;
      killed_vars = Mir.Var.Set.empty;
      executed = Ipds_alias.Pt_set.Int_set.empty;
    }
  in
  List.iter (fun (c, fct) -> set_fact ws c fct) seed;
  List.iter
    (fun iid ->
      (match st.ctx.Context.may_def_of.(iid) with
      | Alias.Access.No_target -> ()
      | Alias.Access.Within vs -> kill_vars ws vs
      | Alias.Access.Exact c -> (
          (* Exact writes: stores may establish facts, everything else
             (calls with an exact pointee) kills. *)
          match Mir.Func.op_at st.ctx.Context.func iid with
          | Some (Mir.Op.Store (_, o)) -> (
              match Trace.operand st.ctx ~at:iid o with
              | Trace.Const n ->
                  if st.opts.store_load then
                    set_fact ws c
                      {
                        pred = Range.Pred.In (Range.Interval.point n);
                        anchor = iid;
                        written = true;
                      }
                  else kill_cell ws c
              | Trace.Val { def_iid = d; affine = a_s } -> (
                  match pin with
                  | Some pin
                    when st.opts.store_load && d = pin.pin_def
                         && usable_affine st a_s
                         && not (Ipds_alias.Pt_set.Int_set.mem d ws.executed) ->
                      let pred = Range.Cond.apply a_s (pin_pred pin) in
                      if Range.Pred.is_top pred then kill_cell ws c
                      else set_fact ws c { pred; anchor = iid; written = true }
                  | Some _ | None -> kill_cell ws c)
              | Trace.Opaque -> kill_cell ws c)
          | Some _ | None -> kill_cell ws c));
      ws.executed <- Ipds_alias.Pt_set.Int_set.add iid ws.executed)
    region.Region.instrs;
  ws

(* ---------- Actions from a walked region ---------- *)

let state_of ws (c : Cell.t) =
  match Cell.Map.find_opt c ws.cells with
  | Some s -> Some s
  | None -> if Mir.Var.Set.mem c.var ws.killed_vars then Some Killed else None

let action_for st ws (dep : Depend.t) =
  match state_of ws dep.Depend.cell with
  | None -> None
  | Some Killed -> Some (dep.Depend.branch_iid, Action.Set_unknown)
  | Some (Known fact) ->
      let l_b = dep.Depend.load_iid in
      let bl = dep.Depend.branch_iid in
      (* (i) every path from the fact point to the branch reloads the
         cell first; *)
      let fresh =
        let reach = reach_from_after st fact.anchor ~avoid:l_b in
        not reach.(bl)
      in
      (* (ii) or the branch's register cannot be stale: no kill separates
         its load from the fact point.  Only available for test-implied
         facts — a *written* fact's own store separates a previously
         loaded register from memory, so it must rely on (i). *)
      let current =
        fresh
        || ((not fact.written)
           && kill_free st ~cell:dep.Depend.cell ~src:l_b ~dst:fact.anchor
                ~exempt:l_b)
      in
      if current then
        match Depend.forced_direction dep fact.pred with
        | Some dir -> Some (bl, Action.of_direction dir)
        | None -> if fact.written then Some (bl, Action.Set_unknown) else None
      else if fact.written then Some (bl, Action.Set_unknown)
      else None

(* ---------- Putting a function together ---------- *)

let analyze_with st =
  let ctx = st.ctx in
  let f = ctx.Context.func in
  let depends = Depend.all ctx in
  let depends =
    List.filter (fun d -> usable_affine st d.Depend.affine) depends
  in
  let actions_of_walk ws =
    List.filter_map (action_for st ws) depends
  in
  let entry_ws = walk_region st ~pin:None ~seed:[] (Region.from_entry f) in
  let entry_actions = actions_of_walk entry_ws in
  let edge_actions =
    List.concat_map
      (fun (bs, _blk) ->
        let pin_at = pin_of st bs in
        List.map
          (fun taken ->
            let pin = pin_at ~taken in
            let seed =
              let own =
                match Depend.of_branch ctx bs with
                | Some dep -> (
                    match own_load_fact st dep ~taken with
                    | Some f -> [ f ]
                    | None -> [])
                | None -> []
              in
              let stores = store_facts st ~bs pin in
              (* own-load facts take precedence on collision: seed last
                 wins in walk seeding, so put them last. *)
              stores @ own
            in
            let region = Region.after_edge f ~branch_iid:bs ~taken in
            let ws = walk_region st ~pin ~seed region in
            ((bs, taken), actions_of_walk ws))
          [ true; false ])
      (Mir.Func.branches f)
  in
  (* BCV: only branches that can actually receive an expected direction. *)
  let module IS = Ipds_alias.Pt_set.Int_set in
  let checked =
    let add acc (tgt, (a : Action.t)) =
      match a with
      | Action.Set_taken | Action.Set_not_taken -> IS.add tgt acc
      | Action.Set_unknown -> acc
    in
    let acc = List.fold_left add IS.empty entry_actions in
    let acc =
      List.fold_left
        (fun acc (_, actions) -> List.fold_left add acc actions)
        acc edge_actions
    in
    IS.elements acc
  in
  let keep (tgt, _) = List.mem tgt checked in
  {
    func = f;
    depends;
    checked;
    edge_actions =
      List.filter_map
        (fun (e, actions) ->
          match List.filter keep actions with
          | [] -> None
          | kept -> Some (e, kept))
        edge_actions;
    entry_actions = List.filter keep entry_actions;
  }

let exact_stores ctx =
  let out = ref [] in
  Mir.Func.iter_instrs ctx.Context.func (fun s op ->
      match op with
      | Mir.Op.Store (a, o) -> (
          match Alias.Access.addr_target ctx.Context.access a with
          | Alias.Access.Exact c_s ->
              out := (s, c_s, Trace.operand ctx ~at:s o) :: !out
          | Alias.Access.No_target | Alias.Access.Within _ -> ())
      | Mir.Op.Const _ | Mir.Op.Move _ | Mir.Op.Binop _ | Mir.Op.Load _
      | Mir.Op.Addr_of _ | Mir.Op.Call _ | Mir.Op.Input _ | Mir.Op.Output _
      | Mir.Op.Nop ->
          ());
  List.rev !out

let st_of ctx options =
  {
    ctx;
    opts = options;
    kills_cache = Cell.Map.empty;
    reach_cache = Memo.create 8;
    coreach_cache = Memo.create 8;
    intercept_cache = Memo.create 8;
    stores = lazy (exact_stores ctx);
  }

let analyze_ctx ?(options = default_options) ctx = analyze_with (st_of ctx options)

let analyze_func ?(options = default_options) ?feas pw func =
  analyze_ctx ~options (Context.for_func ?feas pw func)

(* Branch directions no execution — tampered or not — can commit: the
   committed direction's exact inverse image through the affine trace is
   empty ([Never]), or both operands trace to constants and the branch
   is decided.  Registers are immune to memory tampering (a tampered
   value enters a register only through a load, and these predicates
   come from the trace semantics, not from memory facts), so these are
   safe to prune unconditionally. *)
let static_infeasible ?(options = default_options) ctx =
  let st = st_of ctx options in
  let f = ctx.Context.func in
  let out = ref [] in
  List.iter
    (fun (bs, (blk : Mir.Block.t)) ->
      (match blk.term with
      | Mir.Terminator.Branch { cmp; lhs; rhs; _ } -> (
          match Trace.reg st.ctx ~at:bs lhs, Trace.operand st.ctx ~at:bs rhs with
          | Trace.Const a, Trace.Const b ->
              (* decided: the direction the comparison refutes is dead *)
              out := (bs, not (Mir.Cmp.eval cmp a b)) :: !out
          | _, _ ->
              let pin_at = pin_of st bs in
              List.iter
                (fun taken ->
                  match pin_at ~taken with
                  | Some pin when Range.Pred.equal (pin_pred pin) Range.Pred.Never
                    ->
                      out := (bs, taken) :: !out
                  | Some _ | None -> ())
                [ true; false ])
      | Mir.Terminator.Jump _ | Mir.Terminator.Return _ | Mir.Terminator.Halt ->
          ()))
    (Mir.Func.branches f);
  List.sort compare !out

let analyze_program ?(options = default_options) prog =
  let pw = Context.prepare ~mode:options.summary_mode prog in
  List.map
    (fun (f : Mir.Func.t) -> (f.Mir.Func.name, analyze_func ~options pw f))
    prog.Mir.Program.funcs

let actions_for result edge =
  match List.assoc_opt edge result.edge_actions with
  | Some actions -> actions
  | None -> []

let pp_result ppf r =
  Format.fprintf ppf "@[<v>function %s:@," r.func.Mir.Func.name;
  Format.fprintf ppf "  checked branches: %s@,"
    (String.concat ", " (List.map string_of_int r.checked));
  List.iter
    (fun d -> Format.fprintf ppf "  depend: %a@," Depend.pp d)
    r.depends;
  List.iter
    (fun (tgt, a) -> Format.fprintf ppf "  entry: %d <- %a@," tgt Action.pp a)
    r.entry_actions;
  List.iter
    (fun ((bs, dir), actions) ->
      List.iter
        (fun (tgt, a) ->
          Format.fprintf ppf "  (%d,%c): %d <- %a@," bs
            (if dir then 'T' else 'N')
            tgt Action.pp a)
        actions)
    r.edge_actions;
  Format.fprintf ppf "@]"
