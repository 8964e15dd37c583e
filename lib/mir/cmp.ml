type t =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

(* [a] is typed so the comparisons compile to integer instructions, not
   calls to the polymorphic compare. *)
let eval t (a : int) b =
  match t with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let negate = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

let swap = function
  | Eq -> Eq
  | Ne -> Ne
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

let all = [ Eq; Ne; Lt; Le; Gt; Ge ]

let to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let of_string s =
  List.find_opt (fun c -> String.equal (to_string c) s) all
