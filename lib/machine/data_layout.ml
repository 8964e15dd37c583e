module Mir = Ipds_mir

(* One address unit per cell: pointer arithmetic in the value model then
   agrees with numeric addresses (Ptr + k is numeric + k), which keeps the
   compile-time affine tracing exact even for pointer-valued data. *)
let cell_bytes = 1
let globals_base = 0x100000
let stack_top = 0x7ff00000

(* The one placement rule, for the global segment and for every frame:
   each variable starts where the one before it in the list ends. *)
let offsets vars =
  let _, rev =
    List.fold_left
      (fun (next, acc) (v : Mir.Var.t) -> (next + (v.size * cell_bytes), next :: acc))
      (0, []) vars
  in
  List.rev rev

let offset_in vars var ~missing =
  let rec find vars offs =
    match vars, offs with
    | v :: vars, o :: offs -> if Mir.Var.equal v var then o else find vars offs
    | _ -> invalid_arg missing
  in
  find vars (offsets vars)

let global_address (p : Mir.Program.t) var index =
  globals_base
  + offset_in p.globals var ~missing:"Data_layout.global_address: not a global"
  + (index * cell_bytes)

let frame_size (f : Mir.Func.t) =
  let cells = List.fold_left (fun acc v -> acc + v.Mir.Var.size) 0 f.locals in
  (* locals + a fixed bookkeeping slop (saved registers, return address) *)
  (cells * cell_bytes) + 32

let local_offset (f : Mir.Func.t) var index =
  offset_in f.locals var
    ~missing:"Data_layout.local_offset: not a local of this function"
  + (index * cell_bytes)
