(* Tests for the MiniC front end: lexing, parsing, code generation, and
   end-to-end execution semantics. *)

module M = Ipds_machine
module Minic = Ipds_minic

let check = Alcotest.(check bool)

let run ?(inputs = M.Input_script.constant 0) src =
  M.Interp.run (Minic.Minic.compile src) { M.Interp.default_config with inputs }

let outputs src = (run src).M.Interp.outputs

let test_arith_precedence () =
  check "precedence" true
    (outputs {| int main() { output(2 + 3 * 4); output((2 + 3) * 4); output(10 - 2 - 3); return 0; } |}
    = [ 14; 20; 5 ])

let test_comparisons_as_values () =
  check "booleans" true
    (outputs {| int main() { output(3 < 4); output(4 < 3); output(!(4 < 3)); return 0; } |}
    = [ 1; 0; 1 ])

let test_if_else_chains () =
  let src =
    {|
int classify(int x) {
  if (x < 0) { return 0; }
  if (x == 0) { return 1; }
  if (x < 10) { return 2; } else { return 3; }
}
int main() {
  output(classify(0 - 5));
  output(classify(0));
  output(classify(5));
  output(classify(50));
  return 0;
}
|}
  in
  check "classify" true (outputs src = [ 0; 1; 2; 3 ])

let test_while_for () =
  let src =
    {|
int main() {
  int s;
  int i;
  s = 0;
  for (i = 1; i <= 5; i = i + 1) { s = s + i; }
  output(s);
  while (s > 10) { s = s - 4; }
  output(s);
  return 0;
}
|}
  in
  check "loops" true (outputs src = [ 15; 7 ])

let test_break_continue () =
  let src =
    {|
int main() {
  int i;
  for (i = 0; i < 10; i = i + 1) {
    if (i == 2) { continue; }
    if (i == 5) { break; }
    output(i);
  }
  return 0;
}
|}
  in
  check "break/continue" true (outputs src = [ 0; 1; 3; 4 ])

let test_logical_short_circuit () =
  (* division by a variable that is zero would be observable if the
     right side evaluated; MiniC's division is total, so use input()
     consumption to detect evaluation instead. *)
  let src =
    {|
int main() {
  int a;
  a = 0;
  if (a == 1 && input(0) == 7) { output(1); } else { output(2); }
  if (a == 0 || input(0) == 7) { output(3); } else { output(4); }
  output(input(0));
  return 0;
}
|}
  in
  (* channel 0 provides [7]: neither condition should consume it; the
     final output reads it. *)
  check "short circuit" true
    ((run ~inputs:(M.Input_script.of_lists [ (0, [ 7 ]) ]) src).M.Interp.outputs
    = [ 2; 3; 7 ])

let test_arrays_pointers () =
  let src =
    {|
int sum(int *p, int n) {
  int i;
  int s;
  s = 0;
  for (i = 0; i < n; i = i + 1) { s = s + p[0 + i]; }
  return s;
}
int main() {
  int a[4];
  int *q;
  a[0] = 10; a[1] = 20; a[2] = 30; a[3] = 40;
  q = &a[1];
  output(*q);
  *q = 99;
  output(a[1]);
  output(sum(&a[0], 4));
  return 0;
}
|}
  in
  check "arrays and pointers" true (outputs src = [ 20; 99; 179 ])

let test_globals () =
  let src =
    {|
int counter;
int bump() {
  counter = counter + 1;
  return counter;
}
int main() {
  output(bump());
  output(bump());
  output(counter);
  return 0;
}
|}
  in
  check "globals" true (outputs src = [ 1; 2; 2 ])

let test_recursion () =
  let src =
    {|
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int main() { output(fib(10)); return 0; }
|}
  in
  check "fib" true (outputs src = [ 55 ])

let test_comments () =
  let src =
    {|
// a line comment
int main() {
  /* a block
     comment */
  output(1); // trailing
  return 0;
}
|}
  in
  check "comments" true (outputs src = [ 1 ])

let test_parse_errors () =
  let bad src =
    try
      ignore (Minic.Minic.compile src);
      false
    with Minic.Minic.Error _ -> true
  in
  check "missing semicolon" true (bad "int main() { output(1) return 0; }");
  check "unknown variable" true (bad "int main() { x = 1; return 0; }");
  check "unknown function" true (bad "int main() { frob(); return 0; }");
  check "bad arity" true
    (bad "int f(int a) { return a; } int main() { return f(1, 2); }");
  check "assignment to literal" true (bad "int main() { 3 = 4; return 0; }");
  check "break outside loop" true (bad "int main() { break; return 0; }");
  check "unclosed comment" true (bad "int main() { /* return 0; }");
  check "duplicate local" true (bad "int main() { int a; int a; return 0; }");
  check "shadowing an external" true (bad "int strcmp() { return 0; } int main() { return 0; }")

let test_dead_code_after_return () =
  check "code after return still compiles" true
    (outputs {| int main() { output(1); return 0; output(2); } |} = [ 1 ])

let test_input_channels () =
  let src = {| int main() { output(input(2)); output(input(2)); return 0; } |} in
  check "channels" true
    ((run ~inputs:(M.Input_script.of_lists [ (2, [ 4; 5 ]) ]) src).M.Interp.outputs
    = [ 4; 5 ])

let test_global_arrays_and_shadowing () =
  let src =
    {|
int tab[3];
int x;
int bump(int x) {
  // parameter shadows the global scalar
  tab[0] = tab[0] + x;
  return tab[0];
}
int main() {
  int tab;       // local scalar shadows the global array
  tab = 5;
  x = 2;
  output(bump(x));
  output(bump(10));
  output(tab);
  return 0;
}
|}
  in
  check "shadowing resolves innermost" true (outputs src = [ 2; 12; 5 ])

let test_while_with_complex_condition () =
  let src =
    {|
int main() {
  int a;
  int b;
  a = 0;
  b = 10;
  while (a < 5 && b > 7) {
    a = a + 1;
    b = b - 1;
  }
  output(a);
  output(b);
  return 0;
}
|}
  in
  check "compound loop condition" true (outputs src = [ 3; 7 ])

let test_deep_expression_nesting () =
  let src =
    {|
int main() {
  int a;
  a = ((1 + 2) * (3 + 4) - 5) % 7;
  output(a);
  output(!(a == 2) + (a != 2) + (a > 100));
  return 0;
}
|}
  in
  (* ((3*7)-5) % 7 = 16 % 7 = 2; then 0 + 0 + 0 *)
  check "nesting" true (outputs src = [ 2; 0 ])

let test_unary_minus_precedence () =
  check "unary minus binds tight" true
    (outputs {| int main() { output(-3 + 5); output(- (3 + 5)); return 0; } |}
    = [ 2; -8 ])

let prop_generated_programs_compile_and_run =
  QCheck2.Test.make ~name:"generated MiniC compiles and runs" ~count:150
    Gen.minic_ast (fun ast ->
      let p = Minic.Codegen.compile ast in
      Ipds_mir.Validate.check p = []
      &&
      let o =
        M.Interp.run p
          {
            M.Interp.default_config with
            max_steps = 5000;
            inputs = M.Input_script.random ~seed:3 ();
          }
      in
      o.M.Interp.steps <= 5000)

(* [Array.make] over 256 words with a young initial value runs a minor
   collection first (the runtime's [caml_make_vect]); an [Array.of_list]
   of freshly lexed tokens is one.  Right after [Gc.minor ()], lexing
   and parsing a source must not collect: their allocation fits in half
   the minor heap, so any collection would be a forced one. *)
let no_minor_gc label f =
  Gc.minor ();
  let c0 = (Gc.quick_stat ()).Gc.minor_collections and w0 = Gc.minor_words () in
  let r = f () in
  let collections = (Gc.quick_stat ()).Gc.minor_collections - c0 in
  let words = Gc.minor_words () -. w0 in
  let half = (Gc.get ()).Gc.minor_heap_size / 2 in
  if words >= float_of_int half then
    Alcotest.failf "%s allocated %.0f minor words, not below half the minor heap (%d)" label
      words half;
  Alcotest.(check int) (label ^ ": minor collections") 0 collections;
  r

let test_no_forced_minor_gc () =
  let module W = Ipds_workloads.Workloads in
  (* the longest of the first 16 seed-2006 members: longer than any
     built-in *)
  let src =
    List.fold_left
      (fun a index ->
        let b = Ipds_gen.Gen.source ~seed:2006 ~index () in
        if String.length b > String.length a then b else a)
      "" (List.init 16 Fun.id)
  in
  let toks, _ = no_minor_gc "MiniC lex" (fun () -> Minic.Lexer.tokens src) in
  let ntoks = ref 0 in
  while toks.(!ntoks) <> Minic.Lexer.EOF do
    incr ntoks
  done;
  check (Printf.sprintf "lexed >= 1000 tokens (%d)" !ntoks) true (!ntoks >= 1000);
  ignore (no_minor_gc "MiniC parse" (fun () -> Minic.Parser.parse src));
  List.iter
    (fun (w : W.t) ->
      let text = Ipds_mir.Printer.program_to_string (W.program w) in
      ignore (no_minor_gc ("MIR parse of " ^ w.name) (fun () ->
          Ipds_mir.Parser.program_of_string text)))
    W.all

let () =
  Alcotest.run "minic"
    [
      ( "semantics",
        [
          Alcotest.test_case "precedence" `Quick test_arith_precedence;
          Alcotest.test_case "comparisons as values" `Quick test_comparisons_as_values;
          Alcotest.test_case "if/else chains" `Quick test_if_else_chains;
          Alcotest.test_case "while/for" `Quick test_while_for;
          Alcotest.test_case "break/continue" `Quick test_break_continue;
          Alcotest.test_case "short circuit" `Quick test_logical_short_circuit;
          Alcotest.test_case "arrays/pointers" `Quick test_arrays_pointers;
          Alcotest.test_case "globals" `Quick test_globals;
          Alcotest.test_case "recursion" `Quick test_recursion;
          Alcotest.test_case "input channels" `Quick test_input_channels;
          Alcotest.test_case "global arrays/shadowing" `Quick test_global_arrays_and_shadowing;
          Alcotest.test_case "compound conditions" `Quick test_while_with_complex_condition;
          Alcotest.test_case "deep nesting" `Quick test_deep_expression_nesting;
          Alcotest.test_case "unary minus" `Quick test_unary_minus_precedence;
        ] );
      ( "syntax",
        [
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "dead code" `Quick test_dead_code_after_return;
          Alcotest.test_case "no forced minor GC" `Quick test_no_forced_minor_gc;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_generated_programs_compile_and_run ] );
    ]
