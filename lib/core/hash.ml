type params = {
  shift1 : int;
  shift2 : int;
  space_bits : int;
}

let make ~shift1 ~shift2 ~space_bits =
  if shift1 < 1 || shift2 < 1 || space_bits < 0 || space_bits > 62 then
    invalid_arg "Hash.make: bad parameters";
  { shift1; shift2; space_bits }

let space p = 1 lsl p.space_bits

let[@inline] mix ~shift1 ~shift2 ~mask pc =
  let x = pc lsr 2 in
  let x = x lxor (x lsr shift1) in
  let x = x lxor ((x lsl shift2) land max_int) in
  x land mask

let apply p pc =
  mix ~shift1:p.shift1 ~shift2:p.shift2 ~mask:(space p - 1) pc

let rec ceil_log2 n = if n <= 1 then 0 else 1 + ceil_log2 ((n + 1) / 2)

(* A set of hash values for one candidate at a time: open addressing over
   a power-of-two table of at least [2n] slots, whatever the space size.
   A slot belongs to the current candidate only when its stamp is the
   current generation, so starting a candidate is one increment. *)
type seen = {
  keys : int array;
  stamps : int array;
  mutable gen : int;
}

let seen_for n =
  let size = 1 lsl (ceil_log2 n + 1) in
  { keys = Array.make size 0; stamps = Array.make size 0; gen = 0 }

(* [false] when [h] was already added in this generation; probing
   starts at slot [i]. *)
let rec add_at seen h i =
  let i = i land (Array.length seen.keys - 1) in
  if Array.unsafe_get seen.stamps i <> seen.gen then begin
    Array.unsafe_set seen.stamps i seen.gen;
    Array.unsafe_set seen.keys i h;
    true
  end
  else Array.unsafe_get seen.keys i <> h && add_at seen h (i + 1)

let add seen h = add_at seen h h

(* Two PCs in one 4-byte word hash alike under every candidate, so the
   search would never end. *)
let check_distinct seen pcs =
  seen.gen <- seen.gen + 1;
  Array.iter
    (fun pc ->
      if not (add seen (pc lsr 2)) then
        invalid_arg (Printf.sprintf "Hash.find: branch PC %d repeats a 4-byte word" pc))
    pcs

let collision_free seen ~shift1 ~shift2 ~mask pcs =
  seen.gen <- seen.gen + 1;
  let i = ref 0 in
  while !i < Array.length pcs && add seen (mix ~shift1 ~shift2 ~mask (Array.unsafe_get pcs !i)) do
    incr i
  done;
  !i = Array.length pcs

(* Tries a bounded set of shift pairs per space size, then grows the
   space; [k] counts candidates examined. *)
let search pcs =
  let pcs = Array.of_list pcs in
  let n = Array.length pcs in
  let seen = seen_for n in
  check_distinct seen pcs;
  let exception Found of params * int in
  try
    let k = ref 0 in
    for space_bits = max 1 (ceil_log2 n) to 62 do
      let mask = (1 lsl space_bits) - 1 in
      for shift1 = 1 to 12 do
        for shift2 = 1 to 12 do
          incr k;
          if collision_free seen ~shift1 ~shift2 ~mask pcs then
            raise (Found ({ shift1; shift2; space_bits }, !k))
        done
      done
    done;
    (* Unreachable: with distinct words, the 62-bit space maps them
       one to one under every shift pair. *)
    assert false
  with Found (p, k) -> (p, k)

let find pcs =
  match pcs with
  | [] -> { shift1 = 1; shift2 = 1; space_bits = 0 }
  | _ :: _ -> fst (search pcs)

let attempts_for pcs =
  match pcs with
  | [] -> 0
  | _ :: _ -> snd (search pcs)

let pp ppf p =
  Format.fprintf ppf "hash(s1=%d, s2=%d, space=%d)" p.shift1 p.shift2 (space p)
