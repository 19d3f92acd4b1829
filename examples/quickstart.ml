(* Quickstart: write a two-input program, state a policy, and watch the
   surveillance mechanism enforce it.

       dune exec examples/quickstart.exe *)

module Value = Secpol_core.Value
module Space = Secpol_core.Space
module Policy = Secpol_core.Policy
module Mechanism = Secpol_core.Mechanism
module Soundness = Secpol_core.Soundness
module Completeness = Secpol_core.Completeness
module Ast = Secpol_flowgraph.Ast
module Var = Secpol_flowgraph.Var
module Expr = Secpol_flowgraph.Expr
module Compile = Secpol_flowgraph.Compile
module Interp = Secpol_flowgraph.Interp
module Dynamic = Secpol_taint.Dynamic
module Analyze = Secpol_engine.Analyze
open Expr.Build

let () =
  (* A program over inputs x0 (public) and x1 (secret):
       if x0 = 0 then y := x0 + 1 else y := x1 *)
  let prog =
    Ast.prog ~name:"quickstart" ~arity:2
      (Ast.If
         ( x 0 =: i 0,
           Ast.Assign (Var.Out, x 0 +: i 1),
           Ast.Assign (Var.Out, x 1) ))
  in
  Format.printf "%a@.@." Ast.pp_prog prog;

  (* The policy: the user may learn x0 and nothing about x1. *)
  let policy = Policy.allow [ 0 ] in
  Format.printf "policy: %a  (x1 is withheld)@.@." Policy.pp policy;

  (* Compile to the paper's flowchart form and wrap it in the surveillance
     protection mechanism of Section 3. *)
  let graph = Compile.compile prog in
  let monitor = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) graph in

  let show inputs =
    let a = Array.of_list (List.map Value.int inputs) in
    let reply = Mechanism.respond monitor a in
    let shown =
      match reply.Mechanism.response with
      | Mechanism.Granted v -> Value.to_string v
      | Mechanism.Denied n -> "violation notice " ^ n
      | Mechanism.Hung -> "<hung>"
      | Mechanism.Failed m -> "<fault " ^ m ^ ">"
    in
    Printf.printf "  M(%s) = %s\n"
      (String.concat ", " (List.map string_of_int inputs))
      shown
  in
  print_endline "the mechanism grants the x0 = 0 branch and refuses the other:";
  show [ 0; 7 ];
  show [ 0; 8 ];
  show [ 2; 7 ];
  show [ 2; 8 ];

  (* Soundness is not an aspiration; it is checked, exhaustively. *)
  let space = Space.ints ~lo:0 ~hi:3 ~arity:2 in
  let sound m = fst (Analyze.soundness (Analyze.config space) policy m) in
  (match sound monitor with
  | Soundness.Sound -> print_endline "\nexhaustive check: the mechanism is SOUND"
  | Soundness.Unsound w ->
      Format.printf "\nleak found: %a@." Soundness.pp_verdict (Soundness.Unsound w));

  (* ... unlike the bare program, which leaks x1 outright. *)
  let bare = Mechanism.of_program (Interp.graph_program graph) in
  (match sound bare with
  | Soundness.Sound -> print_endline "bare program: sound (unexpected!)"
  | Soundness.Unsound w ->
      Format.printf "bare program: %a@." Soundness.pp_verdict (Soundness.Unsound w));

  Printf.printf "\ncompleteness: mechanism serves %.0f%% of the input space\n"
    (100.0
    *. Completeness.ratio monitor ~q:(Interp.graph_program graph) space)
