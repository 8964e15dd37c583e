(* One Buffer writer for MIR text.  The artifact code section and every
   per-function content digest of [System.build] hash this text, so its
   bytes are format.  The layout is a Format v-box of indent 0 holding
   one of indent 1 per function and one of indent 2 per block: locals
   and labels at column 1, instructions at column 3, a blank line
   between functions, no break inside a line even past column 78.
   Writers append and return [b]. *)

let str s b =
  Buffer.add_string b s;
  b

(* Non-negative numbers (every register and nearly every immediate) are
   written digit by digit, without [string_of_int]'s allocation. *)
let rec int n b =
  if n < 0 then str (string_of_int n) b
  else begin
    if n >= 10 then ignore (int (n / 10) b);
    Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (n mod 10)));
    b
  end

let reg r b = b |> str "r" |> int (Reg.index r)

let operand o b =
  match o with
  | Operand.Reg r -> reg r b
  | Operand.Imm n -> int n b

let rec sep_list sep write xs b =
  match xs with
  | [] -> b
  | [ x ] -> write x b
  | x :: rest -> b |> write x |> str sep |> sep_list sep write rest

let var (v : Var.t) b =
  if v.size = 1 then str v.name b else b |> str v.name |> str "[" |> int v.size |> str "]"

let addr a b =
  match a with
  | Addr.Direct v -> str v.Var.name b
  | Addr.Index (v, i) -> b |> str v.Var.name |> str "[" |> operand i |> str "]"
  | Addr.Indirect r -> b |> str "[" |> reg r |> str "]"

let def r b = b |> reg r |> str " = "

let op o b =
  match o with
  | Op.Const (r, n) -> b |> def r |> int n
  | Op.Move (r, x) -> b |> def r |> operand x
  | Op.Binop (r, bop, x, y) ->
      b |> def r |> str (Binop.to_string bop) |> str " " |> operand x |> str ", "
      |> operand y
  | Op.Load (r, a) -> b |> def r |> str "load " |> addr a
  | Op.Store (a, x) -> b |> str "store " |> addr a |> str ", " |> operand x
  | Op.Addr_of (r, v, i) ->
      b |> def r |> str "addr " |> str v.Var.name |> str "[" |> operand i |> str "]"
  | Op.Call { dst; callee; args } ->
      (match dst with Some r -> def r b | None -> b)
      |> str "call " |> str callee |> str "(" |> sep_list ", " operand args |> str ")"
  | Op.Input (r, ch) -> b |> def r |> str "input " |> int ch
  | Op.Output x -> b |> str "output " |> operand x
  | Op.Nop -> str "nop" b

let term (f : Func.t) t b =
  let label i = Func.label_of_block f i in
  match t with
  | Terminator.Jump i -> b |> str "jmp " |> str (label i)
  | Terminator.Branch { cmp; lhs; rhs; if_true; if_false } ->
      b |> str "br " |> str (Cmp.to_string cmp) |> str " " |> reg lhs |> str ", "
      |> operand rhs |> str ", " |> str (label if_true) |> str ", " |> str (label if_false)
  | Terminator.Return None -> str "ret" b
  | Terminator.Return (Some x) -> b |> str "ret " |> operand x
  | Terminator.Halt -> str "halt" b

(* Ends with the closing brace on its own line, no newline after it. *)
let func (f : Func.t) b =
  let b = b |> str "func " |> str f.name |> str "(" |> sep_list ", " reg f.params in
  let b = str ") {" b in
  List.iter (fun v -> ignore (b |> str "\n  var " |> var v)) f.locals;
  Array.iter
    (fun (blk : Block.t) ->
      ignore (b |> str "\n " |> str blk.label |> str ":");
      Array.iter (fun (i : Instr.t) -> ignore (b |> str "\n   " |> op i.op)) blk.body;
      ignore (b |> str "\n   " |> term f blk.term))
    f.blocks;
  str "\n}" b

let extern (name, s) b =
  let b = b |> str "extern " |> str name |> str " " in
  match s with
  | Extern.Pure -> str "pure" b
  | Extern.Writes_anything -> str "writes_all" b
  | Extern.Writes_args args -> b |> str "writes(" |> sep_list "," int args |> str ")"

let program_to_string (p : Program.t) =
  let b = Buffer.create 4096 in
  List.iter (fun v -> ignore (b |> str "global " |> var v |> str "\n")) p.globals;
  List.iter (fun e -> ignore (b |> extern e |> str "\n")) p.externs;
  Buffer.contents (b |> sep_list "\n\n" func p.funcs |> str "\n")

let func_to_string f = Buffer.contents (Buffer.create 1024 |> func f |> str "\n")
