module M = Ipds_machine

let recorder program =
  let acc = ref [] in
  let observe (e : M.Event.t) =
    match e.M.Event.kind with
    | M.Event.Call { callee } ->
        if not (Ipds_mir.Program.is_defined program callee) then
          acc := callee :: !acc
    | M.Event.Alu | M.Event.Load _ | M.Event.Store _ | M.Event.Branch _
    | M.Event.Jump _ | M.Event.Ret | M.Event.Input_read | M.Event.Output_write _
    | M.Event.Fault_inject _ ->
        ()
  in
  let trace (o : M.Interp.outcome) =
    let terminal =
      match o.M.Interp.reason with
      | M.Interp.Exited _ -> "exit"
      | M.Interp.Halted -> "halt"
      | M.Interp.Fault _ -> "fault"
      | M.Interp.Out_of_steps -> "steps"
      | M.Interp.Trapped _ -> "trap"
    in
    List.rev (terminal :: !acc)
  in
  (observe, trace)

let collect program ~(config : M.Interp.config) =
  let observe, trace = recorder program in
  let sink =
    match config.M.Interp.sink with
    | None -> observe
    | Some f ->
        fun e ->
          observe e;
          f e
  in
  trace (M.Interp.run program { config with M.Interp.sink = Some sink })
