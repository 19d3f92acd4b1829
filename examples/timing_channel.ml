(* The observability postulate, live: a program whose VALUE is the constant
   1 on every input, yet which announces the secret through its running
   time - and the two Section 3 mechanisms, one of which closes the channel
   (Theorem 3') while the other only moves it into its violation notices.

       dune exec examples/timing_channel.exe *)

module Value = Secpol_core.Value
module Space = Secpol_core.Space
module Policy = Secpol_core.Policy
module Program = Secpol_core.Program
module Mechanism = Secpol_core.Mechanism
module Soundness = Secpol_core.Soundness
module Ast = Secpol_flowgraph.Ast
module Var = Secpol_flowgraph.Var
module Expr = Secpol_flowgraph.Expr
module Compile = Secpol_flowgraph.Compile
module Interp = Secpol_flowgraph.Interp
module Dynamic = Secpol_taint.Dynamic
module Leakage = Secpol_probe.Leakage
module Analyze = Secpol_engine.Analyze
open Expr.Build

let () =
  (* y is always 1; the loop spins x0 times first. *)
  let prog =
    Ast.prog ~name:"constant-but-slow" ~arity:1
      (Ast.seq
         [
           Ast.Assign (Var.Reg 0, x 0);
           Ast.While (r 0 >: i 0, Ast.Assign (Var.Reg 0, r 0 -: i 1));
           Ast.Assign (Var.Out, i 1);
         ])
  in
  let g = Compile.compile prog in
  let q = Interp.graph_program g in
  Format.printf "%a@.@." Ast.pp_prog prog;

  print_endline "outputs and step counts:";
  List.iter
    (fun v ->
      let o = Program.run q [| Value.int v |] in
      match o.Program.result with
      | Program.Value out ->
          Printf.printf "  Q(%d) = %s in %d steps\n" v (Value.to_string out)
            o.Program.steps
      | _ -> assert false)
    [ 0; 1; 4; 7 ];

  let policy = Policy.allow_none in
  let space = Space.ints ~lo:0 ~hi:7 ~arity:1 in
  let verdict view m =
    match fst (Analyze.soundness (Analyze.config ~view space) policy m) with
    | Soundness.Sound -> "sound"
    | Soundness.Unsound _ -> "UNSOUND"
  in
  let bare = Mechanism.of_program q in
  Printf.printf "\nbare program, time hidden:     %s\n"
    (verdict `Value bare);
  Printf.printf "bare program, time observable: %s  (%.3f bits leaked)\n"
    (verdict `Timed bare)
    (Leakage.of_program ~view:`Timed policy q space).Leakage.avg_bits;

  (* Surveillance suppresses the value at halt - but the HALT arrives at a
     secret-dependent moment, so its violation notices tick out the secret. *)
  let ms = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) g in
  Printf.printf "\nsurveillance (suppress at halt), time observable: %s\n"
    (verdict `Timed ms);
  Printf.printf "  leaked through violation timing: %.3f bits\n"
    (Leakage.of_mechanism ~view:`Timed policy ms space).Leakage.avg_bits;

  (* The Theorem 3' mechanism aborts at the first disallowed TEST - before
     the secret can shape the schedule. *)
  let mt = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Timed policy) g in
  Printf.printf "\ntimed surveillance (abort at the test), time observable: %s\n"
    (verdict `Timed mt);
  Printf.printf "  leaked: %.3f bits\n"
    (Leakage.of_mechanism ~view:`Timed policy mt space).Leakage.avg_bits;
  List.iter
    (fun v ->
      let r = Mechanism.respond mt [| Value.int v |] in
      Printf.printf "  M'(%d) denies at step %d\n" v r.Mechanism.steps)
    [ 0; 4; 7 ]
