type t = {
  funcs : Func.t list;
  globals : Var.t list;
  externs : (string * Extern.summary) list;
  main : string;
  var_count : int;
}

let find_func t name =
  List.find_opt (fun (f : Func.t) -> String.equal f.name name) t.funcs

let find_func_exn t name =
  match find_func t name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Program.find_func_exn: %s" name)

let all_vars t =
  t.globals @ List.concat_map (fun (f : Func.t) -> f.locals) t.funcs

let find_var t id =
  List.find_opt (fun (v : Var.t) -> v.id = id) (all_vars t)

let extern_summary t name = Extern.lookup t.externs name
let is_defined t name = Option.is_some (find_func t name)
