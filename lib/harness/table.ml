let render ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun m r ->
        match List.nth_opt r c with
        | Some cell -> max m (String.length cell)
        | None -> m)
      0 all
  in
  let widths = List.init cols width in
  let render_row r =
    let cells =
      List.mapi
        (fun c w ->
          let cell = match List.nth_opt r c with Some s -> s | None -> "" in
          cell ^ String.make (w - String.length cell) ' ')
        widths
    in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let rule =
    "|" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "|"
  in
  String.concat "\n" (render_row header :: rule :: List.map render_row rows)

let rows_json fields rows =
  Ipds_obs.Json.List (List.map (fun r -> Ipds_obs.Json.Obj (fields r)) rows)

let pct x = Printf.sprintf "%.1f%%" (100. *. x)
let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
