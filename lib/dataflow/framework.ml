module Feas = Ipds_cfg.Feasibility

module type DOMAIN = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
end

(* Worklist ordered by a per-block priority (reverse-postorder index for
   forward problems, its mirror for backward ones): always process the
   pending block that comes earliest in the chosen order, instead of
   FIFO insertion order.  For reducible flow graphs this approaches the
   optimal d+2 passes and empirically cuts block visits substantially
   (see test_dataflow's iteration-count regression).  Blocks absent
   from the reverse postorder (unreachable, reached only through a
   pruned edge) sort first under priority -1; ties break on the block
   id, so the iteration order — and the visit count — is deterministic. *)
module Worklist = struct
  module S = Set.Make (struct
    type t = int * int  (* priority, block *)

    (* lexicographic, as polymorphic [compare] orders int pairs, but
       without its C call *)
    let compare ((p1, b1) : t) ((p2, b2) : t) =
      if p1 <> p2 then Int.compare p1 p2 else Int.compare b1 b2
  end)

  type t = {
    mutable set : S.t;
    priority : int array;
    on_list : bool array;
  }

  let create ~n ~rpo ~backward =
    let priority = Array.make n (-1) in
    let last = Array.length rpo - 1 in
    Array.iteri
      (fun i b -> priority.(b) <- (if backward then last - i else i))
      rpo;
    { set = S.empty; priority; on_list = Array.make n false }

  let add t b =
    if not t.on_list.(b) then begin
      t.on_list.(b) <- true;
      t.set <- S.add (t.priority.(b), b) t.set
    end

  let pop t =
    match S.min_elt_opt t.set with
    | None -> None
    | Some ((_, b) as e) ->
        t.set <- S.remove e t.set;
        t.on_list.(b) <- false;
        Some b
end

(* After this many visits of one block, [widen] (when given) is folded
   into its freshly joined input, so infinite-height domains (interval
   environments) still stabilize. *)
let widen_threshold = 4

(* Every solve's visits accumulate here: the visit multiset is fixed by
   the build set, so the counter is stable across --jobs values. *)
let m_visits = Ipds_obs.Registry.counter "dataflow.block_visits"

module Forward (D : DOMAIN) = struct
  let solve ?visits ?edge ?widen (g : Feas.view) ~entry ~bottom ~transfer =
    let n = g.Feas.v_blocks in
    let block_in = Array.make n bottom in
    let block_out = Array.make n bottom in
    block_in.(0) <- entry;
    let wl = Worklist.create ~n ~rpo:g.Feas.v_rpo ~backward:false in
    let seen = Array.make n 0 in
    let count = ref 0 in
    Array.iter (Worklist.add wl) g.Feas.v_rpo;
    let flow p b =
      match edge with
      | None -> block_out.(p)
      | Some f -> f ~src:p ~dst:b block_out.(p)
    in
    let rec drain () =
      match Worklist.pop wl with
      | None -> ()
      | Some b ->
          incr count;
          seen.(b) <- seen.(b) + 1;
          let input =
            List.fold_left
              (fun acc p -> D.join acc (flow p b))
              (if b = 0 then entry else bottom)
              (g.Feas.v_preds b)
          in
          let input =
            match widen with
            | Some w when seen.(b) > widen_threshold -> w block_in.(b) input
            | Some _ | None -> input
          in
          block_in.(b) <- input;
          let output = transfer b input in
          if not (D.equal output block_out.(b)) then begin
            block_out.(b) <- output;
            List.iter (Worklist.add wl) (g.Feas.v_succs b)
          end;
          drain ()
    in
    drain ();
    Ipds_obs.Registry.add m_visits !count;
    Option.iter (fun r -> r := !count) visits;
    (block_in, block_out)
end

module Backward (D : DOMAIN) = struct
  let solve ?visits (g : Feas.view) ~exit ~bottom ~transfer =
    let n = g.Feas.v_blocks in
    let block_in = Array.make n bottom in
    let block_out = Array.make n bottom in
    let wl = Worklist.create ~n ~rpo:g.Feas.v_rpo ~backward:true in
    let count = ref 0 in
    let rpo = g.Feas.v_rpo in
    for i = Array.length rpo - 1 downto 0 do
      Worklist.add wl rpo.(i)
    done;
    let rec drain () =
      match Worklist.pop wl with
      | None -> ()
      | Some b ->
          incr count;
          let succs = g.Feas.v_succs b in
          let output =
            match succs with
            | [] -> exit
            | _ :: _ ->
                List.fold_left (fun acc s -> D.join acc block_in.(s)) bottom succs
          in
          block_out.(b) <- output;
          let input = transfer b output in
          if not (D.equal input block_in.(b)) then begin
            block_in.(b) <- input;
            List.iter (Worklist.add wl) (g.Feas.v_preds b)
          end;
          drain ()
    in
    drain ();
    Ipds_obs.Registry.add m_visits !count;
    Option.iter (fun r -> r := !count) visits;
    (block_in, block_out)
end
