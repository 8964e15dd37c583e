(* All checker counters are stable: they count events of the simulated
   program, whose multiset is independent of host scheduling.  The hot
   path accumulates them in plain mutable fields and flushes to the
   registry when an activation stack empties (and on {!flush}), so a
   checked branch costs no atomic operation. *)
let m_calls = Ipds_obs.Registry.counter "checker.calls"
let m_returns = Ipds_obs.Registry.counter "checker.returns"
let m_branches = Ipds_obs.Registry.counter "checker.branches"
let m_checked = Ipds_obs.Registry.counter "checker.checked"
let m_verdict_ok = Ipds_obs.Registry.counter "checker.verdict_ok"
let m_verdict_alarm = Ipds_obs.Registry.counter "checker.verdict_alarm"
let m_bat_updates = Ipds_obs.Registry.counter "checker.bat_updates"

type alarm = {
  fname : string;
  branch_pc : int;
  expected : Status.t;
  actual_taken : bool;
  sequence : int;
}

(* Branch verdicts are a packed int, never allocated:
     bit 0      — the branch was marked in the BCV
     bit 1      — status mismatch (an alarm was recorded)
     bit 2      — protocol violation: branch with no active frame
     bits 3..4  — the expected status code ({!Status.to_code})
     bits 5..   — BAT nodes applied by the update *)
type verdict = int

let verdict_checked v = v land 1 <> 0
let verdict_alarm v = v land 2 <> 0
let verdict_violation v = v land 4 <> 0
let verdict_ok v = v land 6 = 0
let verdict_expected v = Status.of_code ((v lsr 3) land 3)
let verdict_bat_nodes v = v lsr 5
let violation_verdict = 4

(* The frame arena: activation [i] owns [images.(i)], plus the 2-bit
   packed BSV slab bytes [offs.(i) .. offs.(i) + bsv_bytes).  Pushing
   zero-fills a slab slice; popping just rewinds [slab_top].  Both
   arrays grow geometrically and are never shrunk, so a steady-state
   call/branch/return cycle performs no allocation at all. *)
type t = {
  lookup : string -> Image.t;
  mutable images : Image.t array;
  mutable offs : int array;
  mutable slab : Bytes.t;
  mutable depth : int;
  mutable slab_top : int;
  (* cached top frame — valid whenever [depth > 0]; saves two array
     reads per branch on the hot path.  The five image fields the
     branch path touches are flattened alongside so every hot load is
     one indirection from [t], not two through [top_img] *)
  mutable top_img : Image.t;
  mutable top_off : int;
  mutable top_shift1 : int;
  mutable top_shift2 : int;
  mutable top_mask : int;
  mutable top_rows : int array;
  mutable top_nodes : int array;
  mutable alarms_rev : alarm list;
  mutable n_alarms : int;
  mutable branches : int;
  (* pending (unflushed) counter deltas; the branch delta is derived
     from the [branches] total and a flush watermark so the hot path
     pays one store, not two *)
  mutable f_branches : int;
  mutable d_calls : int;
  mutable d_returns : int;
  (* checked and BAT-node deltas packed in one field (checked in the
     low 32 bits, nodes above) so the hot checked-branch-with-update
     path pays a single read-modify-write, not two.  Both halves reset
     at every flush — and the stack empties (auto-flushing) at the end
     of every replayed trace — so wrapping 32 bits would take one
     activation epoch with 2^32 checked branches, far beyond any
     memory-bounded trace. *)
  mutable d_cb : int;
  mutable d_alarm : int;
}

let create ~lookup =
  {
    lookup;
    images = Array.make 16 Image.empty;
    offs = Array.make 16 0;
    slab = Bytes.make 256 '\000';
    depth = 0;
    slab_top = 0;
    top_img = Image.empty;
    top_off = 0;
    top_shift1 = 0;
    top_shift2 = 0;
    top_mask = 0;
    top_rows = Image.empty.Image.rows;
    top_nodes = Image.empty.Image.nodes;
    alarms_rev = [];
    n_alarms = 0;
    branches = 0;
    f_branches = 0;
    d_calls = 0;
    d_returns = 0;
    d_cb = 0;
    d_alarm = 0;
  }

let flush t =
  let add m n = if n <> 0 then Ipds_obs.Registry.add m n in
  add m_calls t.d_calls;
  add m_returns t.d_returns;
  add m_branches (t.branches - t.f_branches);
  let d_checked = t.d_cb land 0xffff_ffff in
  add m_checked d_checked;
  (* every checked branch is ok xor alarm, so the ok delta is derived
     rather than paid for with a third store per branch *)
  add m_verdict_ok (d_checked - t.d_alarm);
  add m_verdict_alarm t.d_alarm;
  add m_bat_updates (t.d_cb lsr 32);
  t.f_branches <- t.branches;
  t.d_calls <- 0;
  t.d_returns <- 0;
  t.d_cb <- 0;
  t.d_alarm <- 0

let grow_frames t =
  let cap = Array.length t.images in
  let images = Array.make (2 * cap) Image.empty in
  Array.blit t.images 0 images 0 cap;
  t.images <- images;
  let offs = Array.make (2 * cap) 0 in
  Array.blit t.offs 0 offs 0 cap;
  t.offs <- offs

let ensure_slab t need =
  let cap = Bytes.length t.slab in
  if t.slab_top + need > cap then begin
    let ncap = ref (max 256 (2 * cap)) in
    while t.slab_top + need > !ncap do
      ncap := 2 * !ncap
    done;
    let slab = Bytes.make !ncap '\000' in
    Bytes.blit t.slab 0 slab 0 t.slab_top;
    t.slab <- slab
  end

(* Apply CSR row [r] of [img] to the frame slab at byte offset [off];
   returns the node count.  2-bit read-modify-write per node. *)
let apply_row t (img : Image.t) off r =
  let rw = Array.unsafe_get img.Image.rows r in
  let lo = Image.row_off rw in
  let n = Image.row_len rw in
  for i = lo to lo + n - 1 do
    let w = Array.unsafe_get img.Image.nodes i in
    let byte = off + (w lsr 18) in
    let cur = Char.code (Bytes.unsafe_get t.slab byte) in
    Bytes.unsafe_set t.slab byte
      (Char.unsafe_chr ((cur land ((w lsr 8) land 0xff)) lor (w land 0xff)))
  done;
  n

let set_top t (img : Image.t) off =
  t.top_img <- img;
  t.top_off <- off;
  t.top_shift1 <- img.Image.shift1;
  t.top_shift2 <- img.Image.shift2;
  t.top_mask <- img.Image.mask;
  t.top_rows <- img.Image.rows;
  t.top_nodes <- img.Image.nodes

let push t (img : Image.t) =
  if t.depth = Array.length t.images then grow_frames t;
  let init = img.Image.init_bsv in
  let bytes = Bytes.length init in
  ensure_slab t bytes;
  let off = t.slab_top in
  Bytes.blit init 0 t.slab off bytes;
  Array.unsafe_set t.images t.depth img;
  Array.unsafe_set t.offs t.depth off;
  t.depth <- t.depth + 1;
  t.slab_top <- off + bytes;
  set_top t img off;
  t.d_calls <- t.d_calls + 1;
  let n = apply_row t img off (2 * img.Image.space) in
  t.d_cb <- t.d_cb + (n lsl 32);
  n

let on_call t fname = push t (t.lookup fname)

let on_return t =
  if t.depth = 0 then false
  else begin
    let i = t.depth - 1 in
    t.depth <- i;
    t.slab_top <- Array.unsafe_get t.offs i;
    (* drop the image reference so a popped frame doesn't pin it *)
    Array.unsafe_set t.images i Image.empty;
    if i = 0 then set_top t Image.empty 0
    else
      set_top t
        (Array.unsafe_get t.images (i - 1))
        (Array.unsafe_get t.offs (i - 1));
    t.d_returns <- t.d_returns + 1;
    if i = 0 then flush t;
    true
  end

(* The cold alarm path, kept out of line so [on_branch]'s ok path stays
   small and allocation-free. *)
let[@inline never] record_alarm t pc taken v sequence =
  t.d_alarm <- t.d_alarm + 1;
  let a =
    {
      fname = t.top_img.Image.fname;
      branch_pc = pc;
      expected = Status.of_code v;
      actual_taken = taken;
      sequence;
    }
  in
  t.alarms_rev <- a :: t.alarms_rev;
  t.n_alarms <- t.n_alarms + 1;
  3 lor (v lsl 3)

let on_branch t ~pc ~taken =
  if t.depth = 0 then violation_verdict
  else begin
    let off = t.top_off in
    (* inlined collision-free hash.  [Hash.hash] masks the shifted-left
       term with [max_int]; that only clears bit 62, which the final
       [land mask] discards anyway (the mask covers low bits), so the
       slot comes out identical without it — pinned by the differential
       tests against the reference checker *)
    let x = pc lsr 2 in
    let x = x lxor (x lsr t.top_shift1) in
    let x = x lxor (x lsl t.top_shift2) in
    let slot = x land t.top_mask in
    let sequence = t.branches in
    t.branches <- sequence + 1;
    (* one 2-bit read answers both questions: code 3 = unchecked slot,
       codes 0-2 = the expected status of a checked one *)
    let byte = off + (slot lsr 2) in
    let shift = (slot land 3) * 2 in
    let v = (Char.code (Bytes.unsafe_get t.slab byte) lsr shift) land 3 in
    let b = Bool.to_int taken in
    (* the lone mismatching code is [taken+1]: Taken(1) committed
       not-taken, or Not_taken(2) committed taken *)
    let base =
      if v = 3 then 0
      else if v <> b + 1 then 1 lor (v lsl 3)
      else record_alarm t pc taken v sequence
    in
    (* manually inlined row application (no flambda): most branches have
       an empty BAT row — one packed-row load and a test — and almost
       all nonempty rows hold a single node, so that first node is
       unrolled ahead of the loop *)
    let r = (slot * 2) + b in
    (* one packed row word gives offset and node count in a single load *)
    let rw = Array.unsafe_get t.top_rows r in
    let n = rw land 0xfffff in
    if n <> 0 then begin
      let lo = rw lsr 20 in
      let slab = t.slab in
      let nodes = t.top_nodes in
      let w = Array.unsafe_get nodes lo in
      let byte = off + (w lsr 18) in
      let cur = Char.code (Bytes.unsafe_get slab byte) in
      Bytes.unsafe_set slab byte
        (Char.unsafe_chr ((cur land ((w lsr 8) land 0xff)) lor (w land 0xff)));
      for i = lo + 1 to lo + n - 1 do
        let w = Array.unsafe_get nodes i in
        let byte = off + (w lsr 18) in
        let cur = Char.code (Bytes.unsafe_get slab byte) in
        Bytes.unsafe_set slab byte
          (Char.unsafe_chr
             ((cur land ((w lsr 8) land 0xff)) lor (w land 0xff)))
      done
    end;
    (* one packed delta update covers both the checked count (bit 0 of
       [base]) and the applied-node count *)
    let d = (n lsl 32) lor (base land 1) in
    if d <> 0 then t.d_cb <- t.d_cb + d;
    base lor (n lsl 5)
  end

let depth t = t.depth
let alarms t = List.rev t.alarms_rev
let alarm_count t = t.n_alarms

let last_alarm t =
  match t.alarms_rev with a :: _ -> Some a | [] -> None

(* Alarms recorded after the first [n], oldest first — O(fresh), not
   O(total), so a long trace's batch loop never rescans its history. *)
let alarms_since t n =
  let fresh = t.n_alarms - n in
  let rec take k acc rest =
    if k = 0 then acc
    else
      match rest with
      | [] -> acc
      | a :: tl -> take (k - 1) (a :: acc) tl
  in
  take fresh [] t.alarms_rev

let branches_seen t = t.branches

let status_at t slot =
  if t.depth = 0 then None
  else
    let img = t.top_img in
    if slot < 0 || slot >= img.Image.space then None
    else
      let byte = t.top_off + (slot lsr 2) in
      let shift = (slot land 3) * 2 in
      Some
        (Status.of_code
           ((Char.code (Bytes.get t.slab byte) lsr shift) land 3))

let expected_of_pc t pc =
  if t.depth = 0 then None
  else status_at t (Image.slot_of_pc t.top_img pc)

let current_statuses t =
  if t.depth = 0 then []
  else
    let img = t.top_img in
    let off = t.top_off in
    List.init img.Image.space (fun slot ->
        let byte = off + (slot lsr 2) in
        let shift = (slot land 3) * 2 in
        ( slot,
          Status.of_code
            ((Char.code (Bytes.get t.slab byte) lsr shift) land 3) ))
