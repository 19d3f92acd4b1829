(* Section 5 as a build pipeline: given a program and a policy, try the
   cheapest enforcement first and escalate -

     1. whole-program certification        (run it bare, zero overhead)
     2. per-halt guard after duplication   (still zero runtime bookkeeping)
     3. surveillance on transformed code   (ite / while transforms)
     4. plain surveillance                 (full dynamic monitoring)

   and report, for each stage, how much of the input space the resulting
   sound mechanism serves. Theorem 4 says no stage list is ever optimal for
   all programs; this one is honest about what each rung buys.

       dune exec examples/certify_pipeline.exe *)

module Policy = Secpol_core.Policy
module Mechanism = Secpol_core.Mechanism
module Soundness = Secpol_core.Soundness
module Completeness = Secpol_core.Completeness
module Ast = Secpol_flowgraph.Ast
module Compile = Secpol_flowgraph.Compile
module Interp = Secpol_flowgraph.Interp
module Dynamic = Secpol_taint.Dynamic
module Certify = Secpol_staticflow.Certify
module Halt_guard = Secpol_staticflow.Halt_guard
module Transforms = Secpol_transform.Transforms
module Tabulate = Secpol_probe.Tabulate
module Paper = Secpol_corpus.Paper_programs
module Analyze = Secpol_engine.Analyze

type stage = { label : string; build : Paper.entry -> Mechanism.t option }

let stages =
  [
    {
      label = "1 certify, run bare";
      build =
        (fun e ->
          if Certify.certified ~policy:e.Paper.policy e.Paper.prog then
            Some (Certify.mechanism ~policy:e.Paper.policy e.Paper.prog)
          else None);
    };
    {
      label = "2 duplicate + halt guard";
      build =
        (fun e ->
          let g =
            Transforms.split_halts
              (Compile.compile (Transforms.sink_into_branches e.Paper.prog))
          in
          Some (Halt_guard.mechanism ~policy:e.Paper.policy g));
    };
    {
      label = "3 ite transform + surveillance";
      build =
        (fun e ->
          Some
            (Dynamic.mechanism
                 (Dynamic.config ~mode:Dynamic.Surveillance e.Paper.policy)
                 (Compile.compile (Transforms.ite e.Paper.prog))));
    };
    {
      label = "3b while transform + surveillance";
      build =
        (fun e ->
          let t =
            Transforms.predicate_loops ~residual:false ~bound:4 e.Paper.prog
          in
          match Transforms.equivalent_on e.Paper.prog t e.Paper.space with
          | Ok () ->
              Some
                (Dynamic.mechanism
                     (Dynamic.config ~mode:Dynamic.Surveillance e.Paper.policy)
                     (Compile.compile t))
          | Error _ -> None);
    };
    {
      label = "4 plain surveillance";
      build =
        (fun e ->
          Some
            (Dynamic.mechanism
                 (Dynamic.config ~mode:Dynamic.Surveillance e.Paper.policy)
                 (Paper.graph e)));
    };
  ]

let () =
  List.iter
    (fun name ->
      let e = Paper.find name in
      let q = Paper.program e in
      let analyze = Analyze.config e.Paper.space in
      Printf.printf "\n%s under %s  -  %s\n" e.Paper.name
        (Policy.name e.Paper.policy) e.Paper.paper_ref;
      let t = Tabulate.create ~header:[ "stage"; "applicable"; "serves"; "sound" ] in
      let best = ref ("none", 0.0) in
      List.iter
        (fun s ->
          match s.build e with
          | None -> Tabulate.add_row t [ s.label; "no"; "-"; "-" ]
          | Some m ->
              let ratio = Completeness.ratio m ~q e.Paper.space in
              let sound =
                match fst (Analyze.soundness analyze e.Paper.policy m) with
                | Soundness.Sound -> "yes"
                | Soundness.Unsound _ -> "NO"
              in
              if sound = "yes" && ratio > snd !best then best := (s.label, ratio);
              Tabulate.add_row t
                [ s.label; "yes"; Printf.sprintf "%.0f%%" (100.0 *. ratio); sound ])
        stages;
      Tabulate.add_row t
        [
          "(maximal, brute force)";
          "-";
          Printf.sprintf "%.0f%%"
            (100.0 *. fst (Analyze.maximal_ratio analyze e.Paper.policy q));
          "yes";
        ];
      Tabulate.print t;
      Printf.printf "pipeline picks: %s (%.0f%% served)\n" (fst !best)
        (100.0 *. snd !best))
    [ "branch-allowed"; "ex7"; "ex8"; "ex9"; "loop-then-secretfree"; "direct-flow" ]
