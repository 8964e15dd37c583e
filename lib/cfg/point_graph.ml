module Mir = Ipds_mir

(* Successors and predecessors in compressed rows: the edges of point [p]
   are [adj.(off.(p)) .. adj.(off.(p + 1) - 1)]. *)
type t = {
  n : int;
  succ_off : int array;
  succ : int array;
  pred_off : int array;
  pred : int array;
  first : int array;  (* block index -> first point *)
  stack : int array;  (* a query's work list; each point enters it once *)
}

let make ?(branch_ok = fun _ _ -> true) (f : Mir.Func.t) =
  let n = f.instr_count in
  let first =
    Array.map
      (fun (blk : Mir.Block.t) ->
        if Array.length blk.body > 0 then blk.body.(0).Mir.Instr.iid else blk.term_iid)
      f.blocks
  in
  (* [k p q] for every edge p -> q, a terminator's in successor order. *)
  let iter_edges k =
    Array.iter
      (fun (blk : Mir.Block.t) ->
        let body = blk.body in
        Array.iteri
          (fun pos (i : Mir.Instr.t) ->
            k i.iid
              (if pos + 1 < Array.length body then body.(pos + 1).Mir.Instr.iid
               else blk.term_iid))
          body;
        match blk.term with
        | Mir.Terminator.Branch { if_true; if_false; _ } ->
            if branch_ok blk.term_iid true then k blk.term_iid first.(if_true);
            if branch_ok blk.term_iid false then k blk.term_iid first.(if_false)
        | Mir.Terminator.Jump _ | Mir.Terminator.Return _ | Mir.Terminator.Halt ->
            List.iter (fun b -> k blk.term_iid first.(b)) (Mir.Terminator.successors blk.term))
      f.blocks
  in
  (* Counts each row's length into [off.(p + 1)], sums them into
     offsets, then fills the rows in edge order. *)
  let rows key other =
    let off = Array.make (n + 1) 0 in
    iter_edges (fun p q ->
        let r = key p q in
        off.(r + 1) <- off.(r + 1) + 1);
    for p = 1 to n do
      off.(p) <- off.(p) + off.(p - 1)
    done;
    let adj = Array.make off.(n) 0 in
    let fill = Array.sub off 0 n in
    iter_edges (fun p q ->
        let r = key p q in
        adj.(fill.(r)) <- other p q;
        fill.(r) <- fill.(r) + 1);
    (off, adj)
  in
  let succ_off, succ = rows (fun p _ -> p) (fun _ q -> q) in
  let pred_off, pred = rows (fun _ q -> q) (fun p _ -> p) in
  { n; succ_off; succ; pred_off; pred; first; stack = Array.make n 0 }

let n_points t = t.n

let row off adj p = Array.to_list (Array.sub adj off.(p) (off.(p + 1) - off.(p)))
let succs t p = row t.succ_off t.succ p
let preds t p = row t.pred_off t.pred p

(* Depth-first over the rows [off]/[adj] from the row of [from], never
   entering [a] or [b]; a point is marked when it is pushed, so the
   stack holds at most [n] points. *)
let search t ~off ~adj ~from ~a ~b =
  let seen = Array.make t.n false in
  let stack = t.stack in
  let top = ref 0 in
  let push_row p =
    for e = off.(p) to off.(p + 1) - 1 do
      let q = Array.unsafe_get adj e in
      if q <> a && q <> b && not (Array.unsafe_get seen q) then begin
        Array.unsafe_set seen q true;
        Array.unsafe_set stack !top q;
        incr top
      end
    done
  in
  push_row from;
  while !top > 0 do
    decr top;
    push_row (Array.unsafe_get stack !top)
  done;
  seen

let reach_after t ?(also = -1) p ~avoid =
  search t ~off:t.succ_off ~adj:t.succ ~from:p ~a:avoid ~b:also

let co_reach t p ~avoid = search t ~off:t.pred_off ~adj:t.pred ~from:p ~a:avoid ~b:(-1)
