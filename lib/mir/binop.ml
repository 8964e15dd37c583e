type t =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr

let eval t a b =
  match t with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Rem -> if b = 0 then 0 else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl ->
      let s = b land 63 in
      if s > 62 then 0 else a lsl s
  | Shr ->
      let s = b land 63 in
      a asr min s 62

let all = [ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr ]

let to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let of_string s =
  List.find_opt (fun op -> String.equal (to_string op) s) all
