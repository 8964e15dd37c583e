(* The full deployment story, end to end (paper Figure 6):

   1. "compiler side": compile MiniC, run the correlation analysis, and
      serialize the code, BSV/BCV/BAT and the function information table
      into the .ipds image the compiler attaches to the binary;
   2. "loader": map the image back in (checksums and table structure
      are verified on the way);
   3. "hardware": run with the checker built from the loaded image, with
      the trap-on-alarm behaviour of the real processor — execution stops
      at the infeasible branch, before the compromised path does damage.

     dune exec examples/deploy.exe *)

module Mir = Ipds_mir
module Core = Ipds_core
module M = Ipds_machine

let source =
  {|
int main() {
  int audit[2];
  int req[4];
  int n;
  int i;
  audit[0] = 0;     // privileged mode off
  audit[1] = 0;     // privileged actions
  n = input(0) % 8 + 4;
  i = 0;
  while (i < n) {
    read_line(&req[0], 4);
    if (audit[0]) {
      audit[1] = audit[1] + 1;
      output(700 + i);   // privileged action: visible damage
    } else {
      output(200);
    }
    i = i + 1;
  }
  output(audit[1]);
  return 0;
}
|}

let () =
  (* 1. compiler side *)
  let program = Ipds_minic.Minic.compile source in
  let system = Core.System.build program in
  let image = Ipds_artifact.Artifact.to_bytes system in
  Printf.printf "compiler: analyzed %d functions, table image is %d bytes\n"
    (List.length system.Core.System.funcs)
    (Bytes.length image);

  (* 2. loader: only the image crosses the boundary *)
  let loaded = Ipds_artifact.Artifact.of_bytes image in
  List.iter
    (fun (name, (info : Core.System.func_info)) ->
      let s = Core.Image.sizes info.Core.System.image in
      Printf.printf "loader:   %s at 0x%x — BSV %d / BCV %d / BAT %d bits\n" name
        info.Core.System.entry_pc s.Core.Image.bsv_bits s.Core.Image.bcv_bits
        s.Core.Image.bat_bits)
    loaded.Core.System.funcs;

  (* 3. hardware: benign run, then a tamper with trap-on-alarm *)
  let run ?tamper () =
    M.Interp.run program
      {
        M.Interp.default_config with
        inputs = M.Input_script.of_lists [ (0, [ 2; 9; 9; 9; 9; 9; 9; 9 ]) ];
        checker = Some (Core.System.new_checker loaded);
        trap_on_alarm = true;
        tamper;
      }
  in
  let benign = run () in
  Printf.printf "run:      benign outputs [%s], %d alarms\n"
    (String.concat "; " (List.map string_of_int benign.M.Interp.outputs))
    (List.length benign.M.Interp.alarms);

  let rec attack seed =
    if seed > 100 then print_endline "run:      (no seed hit audit[0])"
    else begin
      let o =
        run
          ~tamper:
            {
              M.Tamper.at_step = 25;
              site =
                M.Tamper.Mem_write { model = M.Tamper.Stack_overflow; value = 1 };
              seed;
            }
          ()
      in
      match o.M.Interp.injection, o.M.Interp.reason with
      | Some (M.Tamper.Tampered_cell i as inj), M.Interp.Trapped a
        when String.equal i.var.Mir.Var.name "audit" ->
          Format.printf "attack:   %a@." M.Tamper.pp_injection inj;
          Printf.printf
            "trap:     stopped at pc 0x%x after %d outputs [%s] — the 700-range \
             privileged action never ran\n"
            a.Core.Checker.branch_pc
            (List.length o.M.Interp.outputs)
            (String.concat "; " (List.map string_of_int o.M.Interp.outputs));
          assert (not (List.exists (fun v -> v >= 700 && v < 800) o.M.Interp.outputs))
      | _, _ -> attack (seed + 1)
    end
  in
  attack 0
