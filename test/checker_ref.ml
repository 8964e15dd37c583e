(* The pre-flat-image checker, kept verbatim as a reference semantics:
   list-based frames over [Tables_ref] tables, per-branch allocation,
   per-query list traversal, and — exactly like the code it preserves —
   3-4 atomic registry hits per committed branch.  test_flat pins the
   arena checker's verdicts, alarms and counter totals against this
   implementation, so the behaviour of the original, registry traffic
   included, must survive here.  Not used by any library.

   The counters are additionally mirrored in plain fields (read them
   with {!counts}) so tests can compare totals without reading the
   registry.  The registry names dedup onto the live checker's cells;
   tests that assert on registry deltas must snapshot around the flat
   run before replaying the reference.

   The only edits are the qualified [Ipds_core] paths and [Tables_ref]
   for the deleted list tables. *)

module Checker = Ipds_core.Checker
module Status = Ipds_core.Status
module Hash = Ipds_core.Hash
module Tables = Tables_ref

let m_calls = Ipds_obs.Registry.counter "checker.calls"
let m_returns = Ipds_obs.Registry.counter "checker.returns"
let m_branches = Ipds_obs.Registry.counter "checker.branches"
let m_checked = Ipds_obs.Registry.counter "checker.checked"
let m_verdict_ok = Ipds_obs.Registry.counter "checker.verdict_ok"
let m_verdict_alarm = Ipds_obs.Registry.counter "checker.verdict_alarm"
let m_bat_updates = Ipds_obs.Registry.counter "checker.bat_updates"

type check_info = {
  alarm : Checker.alarm option;
  was_checked : bool;
  bat_nodes : int;
}

type counts = {
  calls : int;
  returns : int;
  branches : int;
  checked : int;
  verdict_ok : int;
  verdict_alarm : int;
  bat_updates : int;
}

type frame = {
  tables : Tables.t;
  bsv : Status.t array;
}

type t = {
  lookup : string -> Tables.t;
  mutable stack : frame list;
  mutable alarms_rev : Checker.alarm list;
  mutable branches : int;
  mutable c_calls : int;
  mutable c_returns : int;
  mutable c_checked : int;
  mutable c_ok : int;
  mutable c_alarm : int;
  mutable c_bat : int;
}

let create ~lookup =
  {
    lookup;
    stack = [];
    alarms_rev = [];
    branches = 0;
    c_calls = 0;
    c_returns = 0;
    c_checked = 0;
    c_ok = 0;
    c_alarm = 0;
    c_bat = 0;
  }

let apply_row frame row =
  List.iter
    (fun (e : Tables.bat_entry) ->
      frame.bsv.(e.Tables.target_slot) <- Status.of_action e.Tables.action)
    row

let on_call t fname =
  let tables = t.lookup fname in
  let frame =
    { tables; bsv = Array.make (Hash.space tables.Tables.hash) Status.Unknown }
  in
  apply_row frame tables.Tables.entry_row;
  t.stack <- frame :: t.stack;
  Ipds_obs.Registry.incr m_calls;
  Ipds_obs.Registry.add m_bat_updates (List.length tables.Tables.entry_row);
  t.c_calls <- t.c_calls + 1;
  t.c_bat <- t.c_bat + List.length tables.Tables.entry_row;
  List.length tables.Tables.entry_row

let on_return t =
  match t.stack with
  | [] -> invalid_arg "Checker_ref.on_return: empty stack"
  | _ :: rest ->
      t.stack <- rest;
      Ipds_obs.Registry.incr m_returns;
      t.c_returns <- t.c_returns + 1

let top t =
  match t.stack with
  | [] -> invalid_arg "Checker_ref: no active frame"
  | frame :: _ -> frame

let on_branch t ~pc ~taken =
  let frame = top t in
  let tables = frame.tables in
  let slot = Tables.slot_of_pc tables pc in
  let sequence = t.branches in
  t.branches <- t.branches + 1;
  Ipds_obs.Registry.incr m_branches;
  let alarm =
    if tables.Tables.bcv.(slot) then begin
      Ipds_obs.Registry.incr m_checked;
      t.c_checked <- t.c_checked + 1;
      let expected = frame.bsv.(slot) in
      if Status.matches expected taken then begin
        Ipds_obs.Registry.incr m_verdict_ok;
        t.c_ok <- t.c_ok + 1;
        None
      end
      else begin
        Ipds_obs.Registry.incr m_verdict_alarm;
        t.c_alarm <- t.c_alarm + 1;
        let a =
          {
            Checker.fname = tables.Tables.fname;
            branch_pc = pc;
            expected;
            actual_taken = taken;
            sequence;
          }
        in
        t.alarms_rev <- a :: t.alarms_rev;
        Some a
      end
    end
    else None
  in
  let row = tables.Tables.bat.((slot * 2) + if taken then 1 else 0) in
  apply_row frame row;
  Ipds_obs.Registry.add m_bat_updates (List.length row);
  t.c_bat <- t.c_bat + List.length row;
  { alarm; was_checked = tables.Tables.bcv.(slot); bat_nodes = List.length row }

let depth t = List.length t.stack
let alarms t = List.rev t.alarms_rev
let branches_seen t = t.branches

let counts t =
  {
    calls = t.c_calls;
    returns = t.c_returns;
    branches = t.branches;
    checked = t.c_checked;
    verdict_ok = t.c_ok;
    verdict_alarm = t.c_alarm;
    bat_updates = t.c_bat;
  }
