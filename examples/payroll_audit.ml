(* A small "real system" scenario in the paper's terms.

   An auditor queries a payroll record (department, headcount, salary).
   Company policy: the auditor may see the department and the headcount,
   never the salary. Three candidate query programs are proposed; for each
   we (a) check statically whether it can be released as-is (Section 5),
   (b) fit the surveillance monitor (Section 3) and measure how much of the
   input space it serves, and (c) compare with the best any sound mechanism
   could do (Theorem 2's maximal, brute-forced).

       dune exec examples/payroll_audit.exe *)

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
module Certify = Secpol_staticflow.Certify
module Tabulate = Secpol_probe.Tabulate
open Expr.Build

(* inputs: x0 = department id (0..3), x1 = headcount (0..3), x2 = salary *)
let dept = 0
and headcount = 1
and salary = 2

let policy = Policy.allow [ dept; headcount ]
let space = Space.ints ~lo:0 ~hi:3 ~arity:3
let analyze = Analyze.config space

(* Query 1: "how big is the department?" — salary never touched. *)
let q_size =
  Ast.prog ~name:"dept-size" ~arity:3
    (Ast.If
       ( x headcount >: i 2,
         Ast.Assign (Var.Out, i 1),
         Ast.Assign (Var.Out, i 0) ))

(* Query 2: "is anyone paid more than 2?" — depends on the salary. *)
let q_overpaid =
  Ast.prog ~name:"overpaid" ~arity:3
    (Ast.If
       ( x salary >: i 2,
         Ast.Assign (Var.Out, i 1),
         Ast.Assign (Var.Out, i 0) ))

(* Query 3: "headcount — except a debug path for department 3 dumps the
   salary." Static analysis must reject the whole program; at run time the
   debug path is only one department wide. *)
let q_debug =
  Ast.prog ~name:"debug-path" ~arity:3
    (Ast.If
       ( x dept =: i 3,
         Ast.Assign (Var.Out, x salary),
         Ast.Assign (Var.Out, x headcount) ))

(* Query 4: a scratch write of the salary into y, overwritten on every
   path before halting. Flow-sensitive certification forgives it. *)
let q_dead_store =
  Ast.prog ~name:"dead-store" ~arity:3
    (Ast.seq
       [
         Ast.Assign (Var.Out, x salary);
         Ast.If
           ( x dept =: i 0,
             Ast.Assign (Var.Out, i 0),
             Ast.Assign (Var.Out, x headcount) );
       ])

let () =
  Printf.printf "policy: %s (salary withheld)\n\n" (Policy.name policy);
  let t =
    Tabulate.create
      ~header:
        [ "query"; "certified?"; "release as-is"; "surveillance serves";
          "best possible" ]
  in
  List.iter
    (fun prog ->
      let g = Compile.compile prog in
      let q = Interp.graph_program g in
      let certified = Certify.certified ~policy prog in
      let bare_sound =
        match fst (Analyze.soundness analyze policy (Mechanism.of_program q)) with
        | Soundness.Sound -> "safe"
        | Soundness.Unsound _ -> "LEAKS"
      in
      let monitor = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) g in
      Tabulate.add_row t
        [
          prog.Ast.name;
          string_of_bool certified;
          bare_sound;
          Printf.sprintf "%.0f%%" (100.0 *. Completeness.ratio monitor ~q space);
          Printf.sprintf "%.0f%%"
            (100.0 *. fst (Analyze.maximal_ratio analyze policy q));
        ])
    [ q_size; q_overpaid; q_debug; q_dead_store ];
  Tabulate.print t;
  print_endline "";
  print_endline "reading the table:";
  print_endline "- dept-size never touches the salary: certified, ship it bare.";
  print_endline
    "- overpaid genuinely answers a question about the salary: nothing sound\n\
    \  can serve it (best possible 0%) - the policy, not the mechanism, says no.";
  print_endline
    "- debug-path cannot be certified (some path reads the salary), but the\n\
    \  surveillance monitor salvages the three clean departments at run time.";
  print_endline
    "- dead-store overwrites the scratch salary on every path: flow-sensitive\n\
    \  certification forgives it and it is safe to release bare.";

  (* The run-time view of the debug query under the monitor. *)
  let monitor =
    Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) (Compile.compile q_debug)
  in
  print_endline "\ndebug-path under the monitor:";
  List.iter
    (fun (d, h, s) ->
      let reply = Mechanism.respond monitor [| Value.int d; Value.int h; Value.int s |] in
      let shown =
        match reply.Mechanism.response with
        | Mechanism.Granted v -> Value.to_string v
        | Mechanism.Denied n -> "violation " ^ n
        | _ -> "<?>"
      in
      Printf.printf "  dept=%d headcount=%d salary=%d -> %s\n" d h s shown)
    [ (0, 3, 1); (2, 3, 1); (3, 3, 1); (3, 3, 2) ]
