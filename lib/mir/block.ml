type t = {
  index : int;
  label : string;
  body : Instr.t array;
  term : Terminator.t;
  term_iid : int;
}

let successors t = Terminator.successors t.term
