(* Programs as files: load While-language source, pick a policy, and let
   the library decide how to release it — the enforcement story applied to
   code you didn't write in OCaml.

       dune exec examples/file_enforcement.exe [FILE.spl] *)

module Value = Secpol_core.Value
module Space = Secpol_core.Space
module Policy = Secpol_core.Policy
module Mechanism = Secpol_core.Mechanism
module Soundness = Secpol_core.Soundness
module Completeness = Secpol_core.Completeness
module Ast = Secpol_flowgraph.Ast
module Compile = Secpol_flowgraph.Compile
module Interp = Secpol_flowgraph.Interp
module Dynamic = Secpol_taint.Dynamic
module Certify = Secpol_staticflow.Certify
module Source = Secpol_lang.Source
module Tabulate = Secpol_probe.Tabulate
module Analyze = Secpol_engine.Analyze

let default_file = "examples/programs/wage_gap.spl"

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else default_file in
  let prog =
    match Source.load path with
    | Ok p -> p
    | Error m ->
        Printf.eprintf "%s: %s\n" path m;
        exit 1
  in
  Printf.printf "loaded %s:\n\n%s\n" path (Source.to_source prog);

  let g = Compile.compile prog in
  let q = Interp.graph_program g in
  let space = Space.ints ~lo:0 ~hi:3 ~arity:prog.Ast.arity in
  let analyze = Analyze.config space in

  (* Sweep every single-input policy plus the extremes, and report what
     each enforcement route offers. *)
  let t =
    Tabulate.create
      ~header:[ "policy"; "certified"; "bare program"; "surveillance"; "best possible" ]
  in
  let policies =
    (Policy.allow_none
    :: List.init prog.Ast.arity (fun i -> Policy.allow [ i ]))
    @ [ Policy.allow_all ~arity:prog.Ast.arity ]
  in
  List.iter
    (fun policy ->
      let bare =
        match fst (Analyze.soundness analyze policy (Mechanism.of_program q)) with
        | Soundness.Sound -> "safe to ship"
        | Soundness.Unsound _ -> "LEAKS"
      in
      let monitor = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) g in
      Tabulate.add_row t
        [
          Policy.name policy;
          string_of_bool (Certify.certified ~policy prog);
          bare;
          Printf.sprintf "%.0f%%" (100.0 *. Completeness.ratio monitor ~q space);
          Printf.sprintf "%.0f%%"
            (100.0 *. fst (Analyze.maximal_ratio analyze policy q));
        ])
    policies;
  Tabulate.print t;
  print_endline
    "\n(run with any .spl file: dune exec examples/file_enforcement.exe -- path/to/prog.spl)"
