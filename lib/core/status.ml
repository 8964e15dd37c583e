type t =
  | Taken
  | Not_taken
  | Unknown

let matches expected actual =
  match expected with
  | Taken -> actual
  | Not_taken -> not actual
  | Unknown -> true

let of_action = function
  | Ipds_correlation.Action.Set_taken -> Taken
  | Ipds_correlation.Action.Set_not_taken -> Not_taken
  | Ipds_correlation.Action.Set_unknown -> Unknown

(* 2-bit packed encoding used by the flat checker image: Unknown is 0 so
   a zero-filled BSV slab means all-unknown, exactly like the hardware
   reset state. *)
let to_code = function
  | Unknown -> 0
  | Taken -> 1
  | Not_taken -> 2

let of_code = function
  | 1 -> Taken
  | 2 -> Not_taken
  | _ -> Unknown

let pp ppf = function
  | Taken -> Format.pp_print_string ppf "T"
  | Not_taken -> Format.pp_print_string ppf "NT"
  | Unknown -> Format.pp_print_string ppf "UN"

let to_char = function
  | Taken -> 'T'
  | Not_taken -> 'N'
  | Unknown -> 'U'
