(* Quickstart: compile a program, build the IPDS tables, run it under the
   checker, then run it under attack.

     dune exec examples/quickstart.exe *)

module Mir = Ipds_mir
module Core = Ipds_core
module M = Ipds_machine

let source =
  {|
int main() {
  int secret;
  int i;
  secret = 1;
  for (i = 0; i < 5; i = i + 1) {
    if (secret == 1) { output(100); } else { output(200); }
  }
  return 0;
}
|}

let () =
  print_endline "1. Compile MiniC to MIR:";
  let program = Ipds_minic.Minic.compile source in
  print_string (Mir.Printer.program_to_string program);

  print_endline "2. Run the IPDS compile-side analysis:";
  let system = Core.System.build program in
  List.iter
    (fun (_, (info : Core.System.func_info)) ->
      Format.printf "%a@.%a@." Ipds_correlation.Analysis.pp_result info.result
        Core.Image.pp info.image)
    system.Core.System.funcs;

  print_endline "3. Benign run under the runtime checker:";
  let benign_checker = Core.System.new_checker system in
  let benign =
    M.Interp.run program
      { M.Interp.default_config with checker = Some benign_checker }
  in
  Format.printf "   outputs: %s, alarms: %d (zero false positives)@."
    (String.concat " " (List.map string_of_int benign.M.Interp.outputs))
    (List.length benign.M.Interp.alarms);

  print_endline "4. The same run with 'secret' tampered mid-loop:";
  let rec attack seed =
    if seed > 64 then print_endline "   (no seed hit the flag)"
    else begin
      let checker = Core.System.new_checker system in
      let o =
        M.Interp.run program
          {
            M.Interp.default_config with
            checker = Some checker;
            tamper =
              Some
                {
                  M.Tamper.at_step = 20;
                  site =
                    M.Tamper.Mem_write
                      { model = M.Tamper.Stack_overflow; value = 0 };
                  seed;
                };
          }
      in
      match o.M.Interp.injection with
      | Some (M.Tamper.Tampered_cell i as inj)
        when String.equal i.var.Mir.Var.name "secret" ->
          Format.printf "   %a@." M.Tamper.pp_injection inj;
          Format.printf "   outputs: %s@."
            (String.concat " " (List.map string_of_int o.M.Interp.outputs));
          List.iter
            (fun (a : Core.Checker.alarm) ->
              Format.printf
                "   ALARM: branch at pc 0x%x in %s expected %a, went %s@."
                a.branch_pc a.fname Core.Status.pp a.expected
                (if a.actual_taken then "taken" else "not-taken"))
            o.M.Interp.alarms
      | Some _ | None -> attack (seed + 1)
    end
  in
  attack 0
