module Mir = Ipds_mir

type def =
  | Entry
  | At of int

module Def_set = Set.Make (struct
  type t = def

  let compare = compare
end)

(* A set of definition ids as a bit vector, [Sys.int_size] ids per
   word.  Id [r] is register [r]'s [Entry]; id [nregs + k] is the
   [k]-th defining instruction in block order.  A vector the solver
   holds is never mutated: join and transfer build fresh ones. *)
module Bits = struct
  type t = int array

  let word = Sys.int_size
  let make n = Array.make ((n + word - 1) / word) 0
  let mem (v : t) i = v.(i / word) land (1 lsl (i mod word)) <> 0
  let add (v : t) i = v.(i / word) <- v.(i / word) lor (1 lsl (i mod word))

  let equal (a : t) (b : t) =
    let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let join (a : t) (b : t) = Array.map2 ( lor ) a b
end

module Solver = Framework.Forward (Bits)

type t = {
  func : Mir.Func.t;
  nregs : int;
  block_of : int array;  (* iid -> block *)
  pos_of : int array;  (* iid -> body position; body length for a terminator *)
  def_iid : int array;  (* id - nregs -> iid of the defining instruction *)
  reg_defs : int array array;  (* register -> ids of its defining instructions *)
  block_in : Bits.t array;
}

let def_reg (i : Mir.Instr.t) = Option.map Mir.Reg.index (Mir.Op.def i.op)

(* Number the definitions and locate every iid. *)
let index (f : Mir.Func.t) =
  let nregs = f.Mir.Func.reg_count in
  let n = f.Mir.Func.instr_count in
  let block_of = Array.make n 0 and pos_of = Array.make n 0 in
  let def_id = Array.make n (-1) in
  let ndefs = ref 0 in
  let per_reg = Array.make nregs 0 in
  Array.iteri
    (fun b (blk : Mir.Block.t) ->
      Array.iteri
        (fun p (i : Mir.Instr.t) ->
          block_of.(i.iid) <- b;
          pos_of.(i.iid) <- p;
          match def_reg i with
          | Some r ->
              def_id.(i.iid) <- nregs + !ndefs;
              incr ndefs;
              per_reg.(r) <- per_reg.(r) + 1
          | None -> ())
        blk.body;
      block_of.(blk.term_iid) <- b;
      pos_of.(blk.term_iid) <- Array.length blk.body)
    f.blocks;
  let def_iid = Array.make !ndefs 0 in
  (* filled in place: an [Array.map] whose first row is young forces a
     minor collection once [nregs] passes 256 *)
  let reg_defs = Array.make nregs [||] in
  Array.iteri (fun r k -> reg_defs.(r) <- Array.make k 0) per_reg;
  Array.fill per_reg 0 nregs 0;
  Array.iter
    (fun (blk : Mir.Block.t) ->
      Array.iter
        (fun (i : Mir.Instr.t) ->
          match def_reg i with
          | Some r ->
              let id = def_id.(i.iid) in
              def_iid.(id - nregs) <- i.iid;
              reg_defs.(r).(per_reg.(r)) <- id;
              per_reg.(r) <- per_reg.(r) + 1
          | None -> ())
        blk.body)
    f.blocks;
  (block_of, pos_of, def_id, def_iid, reg_defs)

(* Per block: [gen] holds the last definition of each register the
   block defines, [kill] every definition (and the [Entry]) of those
   registers. *)
let gen_kill (f : Mir.Func.t) ~size ~def_id ~reg_defs =
  let nregs = f.Mir.Func.reg_count in
  let seen = Array.make nregs (-1) in
  let gen = Array.map (fun _ -> Bits.make size) f.blocks in
  let kill = Array.map (fun _ -> Bits.make size) f.blocks in
  Array.iteri
    (fun b (blk : Mir.Block.t) ->
      for p = Array.length blk.body - 1 downto 0 do
        let i = blk.body.(p) in
        match def_reg i with
        | Some r when seen.(r) <> b ->
            seen.(r) <- b;
            Bits.add gen.(b) def_id.(i.iid);
            Bits.add kill.(b) r;
            Array.iter (Bits.add kill.(b)) reg_defs.(r)
        | Some _ | None -> ()
      done)
    f.blocks;
  (gen, kill)

let compute ?feas cfg =
  let f = Ipds_cfg.Cfg.func cfg in
  let view =
    match feas with
    | Some feas -> Ipds_cfg.Feasibility.view feas
    | None -> Ipds_cfg.Feasibility.view_of_cfg cfg
  in
  let nregs = f.Mir.Func.reg_count in
  let block_of, pos_of, def_id, def_iid, reg_defs = index f in
  let size = nregs + Array.length def_iid in
  let gen, kill = gen_kill f ~size ~def_id ~reg_defs in
  let entry = Bits.make size in
  for r = 0 to nregs - 1 do
    Bits.add entry r
  done;
  let transfer b (d : Bits.t) =
    let g = gen.(b) and k = kill.(b) in
    Array.init (Array.length d) (fun w -> g.(w) lor (d.(w) land lnot k.(w)))
  in
  let block_in, _ = Solver.solve view ~entry ~bottom:(Bits.make size) ~transfer in
  { func = f; nregs; block_of; pos_of; def_iid; reg_defs; block_in }

let locate t iid =
  if iid < 0 || iid >= Array.length t.block_of then raise Not_found;
  (t.block_of.(iid), t.pos_of.(iid))

(* The last definition of register [r] in block [b] strictly before
   position [pos]: it shadows everything the block's input holds. *)
let prefix_def t b pos r =
  let body = t.func.Mir.Func.blocks.(b).Mir.Block.body in
  let rec go p =
    if p < 0 then None
    else
      match def_reg body.(p) with
      | Some r' when r' = r -> Some body.(p).Mir.Instr.iid
      | Some _ | None -> go (p - 1)
  in
  go (pos - 1)

(* [f] over the definitions of register [r] in block [b]'s input. *)
let fold_block_in t b r f acc =
  let v = t.block_in.(b) in
  let acc = if Bits.mem v r then f Entry acc else acc in
  Array.fold_left
    (fun acc id -> if Bits.mem v id then f (At t.def_iid.(id - t.nregs)) acc else acc)
    acc t.reg_defs.(r)

let before t ~iid reg =
  let b, pos = locate t iid in
  let r = Mir.Reg.index reg in
  match prefix_def t b pos r with
  | Some d -> Def_set.singleton (At d)
  | None -> fold_block_in t b r Def_set.add Def_set.empty

let unique_def t ~iid reg =
  let b, pos = locate t iid in
  let r = Mir.Reg.index reg in
  match prefix_def t b pos r with
  | Some d -> Some (At d)
  | None -> (
      match fold_block_in t b r (fun d (n, _) -> (n + 1, Some d)) (0, None) with
      | 1, d -> d
      | _ -> None)
