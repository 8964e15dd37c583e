(* The paper's Figure 2/Figure 4 scenario, at the MIR level: a loop whose
   branches are correlated through the unmodified variable y.  Tampering y
   between iterations forces a dynamically infeasible path.

     dune exec examples/loop_invariant.exe *)

module Mir = Ipds_mir
module Core = Ipds_core
module M = Ipds_machine

let source =
  {|
func main() {
 var x
 var y
entry:
  r0 = input 0
  store y, r0
  r1 = input 0
  store x, r1
  jmp loop
loop:
  r2 = load y
  br lt r2, 5, bb2, bb5
bb2:
  r3 = load x
  br gt r3, 10, bb3, bb5
bb3:
  r4 = input 0
  store x, r4
  jmp bb5
bb5:
  r5 = load y
  br lt r5, 10, loop, exit
exit:
  ret 0
}
|}

let () =
  let program = Mir.Parser.program_of_string source in
  print_endline "The Figure 4 loop:";
  print_string (Mir.Printer.program_to_string program);

  let system = Core.System.build program in
  let info = List.assoc "main" system.Core.System.funcs in
  print_endline "Branch Action Table (BR1 = iid 6 on y<5, BR2 = iid 8 on x>10,";
  print_endline "BR5 = iid 13 on y<10; compare with the paper's walkthrough):";
  Format.printf "%a@." Ipds_correlation.Analysis.pp_result info.Core.System.result;

  (* y = 3: BR1 taken and BR5 taken every iteration, forever (bounded by
     the step cap); tamper y after a few iterations. *)
  let run ~tamper =
    let checker = Core.System.new_checker system in
    M.Interp.run program
      {
        M.Interp.default_config with
        max_steps = 200;
        inputs = M.Input_script.of_lists [ (0, [ 3; 20 ]) ];
        checker = Some checker;
        tamper;
      }
  in
  let benign = run ~tamper:None in
  Format.printf "benign: %d branches committed, %d alarms@."
    benign.M.Interp.branches
    (List.length benign.M.Interp.alarms);

  (* Arbitrary-write tamper: find a seed that corrupts y. *)
  let rec attack seed =
    if seed > 64 then print_endline "(no seed hit y)"
    else begin
      let o =
        run
          ~tamper:
            (Some
               {
                 M.Tamper.at_step = 40;
                 site =
                   M.Tamper.Mem_write
                     { model = M.Tamper.Arbitrary_write; value = 7 };
                 seed;
               })
      in
      match o.M.Interp.injection with
      | Some (M.Tamper.Tampered_cell i as inj)
        when String.equal i.var.Mir.Var.name "y" ->
          Format.printf "attack: %a@." M.Tamper.pp_injection inj;
          (match o.M.Interp.alarms with
          | [] -> print_endline "NOT DETECTED"
          | a :: _ ->
              Format.printf
                "DETECTED after %d cycles-worth of branches: pc 0x%x expected %a@."
                a.Core.Checker.sequence a.Core.Checker.branch_pc Core.Status.pp
                a.Core.Checker.expected)
      | Some _ | None -> attack (seed + 1)
    end
  in
  attack 0
