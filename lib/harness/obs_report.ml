let metrics_json () = Ipds_obs.Registry.snapshot_json ~stability:`Stable ()

let runtime_json () =
  Ipds_obs.Json.Obj
    [ ("metrics", Ipds_obs.Registry.snapshot_json ~stability:`Unstable ()) ]
