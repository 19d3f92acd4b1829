(* Section 3: the surveillance protection mechanism and its relatives —
   both the taint-tracking interpreter and the paper's literal
   source-to-source instrumentation, which must agree. *)

open Util
module Iset = Secpol_core.Iset
module Ast = Secpol_flowgraph.Ast
module Var = Secpol_flowgraph.Var
module Expr = Secpol_flowgraph.Expr
module Graph = Secpol_flowgraph.Graph
module Compile = Secpol_flowgraph.Compile
module Interp = Secpol_flowgraph.Interp
module Dynamic = Secpol_taint.Dynamic
module Instrument = Secpol_taint.Instrument
module Paper = Secpol_corpus.Paper_programs
module Generator = Secpol_corpus.Generator
open Expr.Build

let mech mode (e : Paper.entry) = Dynamic.mechanism (Dynamic.config ~mode e.Paper.policy) (Paper.graph e)

(* --- The Section 3 comparison: surveillance vs high-water ------------- *)

let test_forgetting_surveillance () =
  let e = Paper.forgetting in
  let ms = mech Dynamic.Surveillance e in
  (* Grants exactly when x1 = 0 (y's old taint is forgotten). *)
  check_grants "x1=0 grants y=0" ms [ 3; 0 ] 0;
  check_denies "x1<>0 denies" ms [ 3; 1 ];
  check_denies "x1<>0 denies" ms [ 0; 2 ];
  check_sound "surveillance sound" e.Paper.policy ms e.Paper.space;
  check_ratio "grants the x1=0 quarter" ~expected:0.25 ms
    ~q:(Paper.program e) e.Paper.space

let test_forgetting_high_water () =
  let e = Paper.forgetting in
  let mh = mech Dynamic.High_water e in
  check_denies "high-water never forgets" mh [ 3; 0 ];
  check_denies "high-water never forgets" mh [ 0; 0 ];
  check_sound "high-water sound" e.Paper.policy mh e.Paper.space;
  check_ratio "grants nothing" ~expected:0.0 mh ~q:(Paper.program e) e.Paper.space;
  (* Ms > Mh, strictly (the paper's claim). *)
  let ms = mech Dynamic.Surveillance e in
  Alcotest.(check bool) "Ms strictly more complete" true
    (Completeness.compare ms mh ~q:(Paper.program e) e.Paper.space
    = Completeness.More_complete)

(* --- Non-maximality (Section 4) ---------------------------------------- *)

let test_surveillance_not_maximal () =
  let e = Paper.constant_branch in
  let q = Paper.program e in
  let ms = mech Dynamic.Surveillance e in
  check_ratio "surveillance always denies" ~expected:0.0 ms ~q e.Paper.space;
  let mx = Maximal.build e.Paper.policy q e.Paper.space in
  check_ratio "maximal grants everywhere (Q is constant)" ~expected:1.0 mx ~q
    e.Paper.space;
  Alcotest.(check bool) "maximal strictly beats surveillance" true
    (Completeness.compare mx ms ~q e.Paper.space = Completeness.More_complete)

(* --- Timed surveillance (Theorem 3') ----------------------------------- *)

let test_timed_mode () =
  let e = Paper.forgetting in
  let mt = mech Dynamic.Timed e in
  (* The decision on x1 is allowed here, so timed behaves like plain
     surveillance on this program. *)
  check_grants "still grants x1=0" mt [ 3; 0 ] 0;
  check_sound "sound with observable time" ~config:Soundness.timed e.Paper.policy
    mt e.Paper.space;
  (* Surveillance (which suppresses only at halt) is NOT timed-sound on a
     program that branches on the secret before halting. *)
  let branchy =
    Ast.prog ~name:"branchy" ~arity:2
      (Ast.seq
         [
           Ast.If (x 0 =: i 0, Ast.Assign (Var.Reg 0, i 1), Ast.Skip);
           Ast.Assign (Var.Out, x 1);
         ])
  in
  let g = Compile.compile branchy in
  let policy = Policy.allow [ 1 ] in
  let ms = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) g in
  let mt' = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Timed policy) g in
  let space = Space.ints ~lo:0 ~hi:3 ~arity:2 in
  check_sound "surveillance sound untimed" policy ms space;
  check_unsound "surveillance leaks through time" ~config:Soundness.timed policy
    ms space;
  check_sound "timed variant sound even timed" ~config:Soundness.timed policy mt'
    space

let test_timed_denies_at_decision () =
  (* Branch on the secret: the timed mechanism must deny BEFORE the test —
     i.e. at the same step count on every input of a class. *)
  let branchy =
    Ast.prog ~name:"secret-branch" ~arity:1
      (Ast.If (x 0 =: i 0, Ast.Assign (Var.Out, i 1), Ast.Assign (Var.Out, i 1)))
  in
  let g = Compile.compile branchy in
  let m = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Timed Policy.allow_none) g in
  let r0 = Mechanism.respond m (ints [ 0 ]) in
  let r5 = Mechanism.respond m (ints [ 3 ]) in
  (match (r0.Mechanism.response, r5.Mechanism.response) with
  | Mechanism.Denied _, Mechanism.Denied _ -> ()
  | _ -> Alcotest.fail "expected denials");
  Alcotest.(check int) "same denial time" r0.Mechanism.steps r5.Mechanism.steps

(* --- Scoped surveillance: more complete, not sound --------------------- *)

let test_scoped_trap () =
  let e = Paper.scoped_trap in
  let q = Paper.program e in
  let msc = mech Dynamic.Scoped e in
  let ms = mech Dynamic.Surveillance e in
  (* Scoped restores the pc taint after the join, so the UNTAKEN-branch
     runs (x1 <> 0, y left at 0) are granted; the taken branch's assignment
     still absorbs the branch taint and is denied. Granting 3/4 of the
     space while the grant/deny choice tracks the disallowed test is
     precisely the leak. *)
  check_ratio "scoped grants the untaken-branch inputs" ~expected:0.75 msc ~q
    e.Paper.space;
  check_ratio "surveillance denies everywhere" ~expected:0.0 ms ~q e.Paper.space;
  check_unsound "scoped is unsound here" e.Paper.policy msc e.Paper.space;
  check_sound "surveillance stays sound" e.Paper.policy ms e.Paper.space

let test_scoped_helps_soundly_sometimes () =
  (* Compute after a tainted branch rejoins, but never into the output:
     scoped grants, surveillance denies, and scoped happens to be sound. *)
  let p =
    Ast.prog ~name:"rejoin" ~arity:2
      (Ast.seq
         [
           Ast.If (x 0 =: i 0, Ast.Assign (Var.Reg 0, i 1), Ast.Assign (Var.Reg 0, i 2));
           Ast.Assign (Var.Out, x 1);
         ])
  in
  let g = Compile.compile p in
  let policy = Policy.allow [ 1 ] in
  let space = Space.ints ~lo:0 ~hi:2 ~arity:2 in
  let msc = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Scoped policy) g in
  let ms = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) g in
  let q = Interp.graph_program g in
  check_ratio "scoped grants" ~expected:1.0 msc ~q space;
  check_ratio "surveillance denies" ~expected:0.0 ms ~q space;
  check_sound "scoped sound on this program" policy msc space

(* --- The instrumentation (rules 1-4) ------------------------------------ *)

let test_instrumented_structure () =
  let e = Paper.forgetting in
  let g = Paper.graph e in
  let allowed = Iset.of_list [ 1 ] in
  let g' = Instrument.instrument Instrument.Untimed ~allowed g in
  (* The instrumented graph contains exactly one violation halt, and more
     boxes than the original. *)
  let violations =
    Array.to_list g'.Graph.nodes
    |> List.filter (function Graph.Halt_violation _ -> true | _ -> false)
  in
  Alcotest.(check int) "one violation halt" 1 (List.length violations);
  Alcotest.(check bool) "strictly bigger" true
    (Graph.node_count g' > Graph.node_count g)

let test_instrumented_rejects_reinstrumentation () =
  let e = Paper.forgetting in
  let allowed = Iset.of_list [ 1 ] in
  let g' = Instrument.instrument Instrument.Untimed ~allowed (Paper.graph e) in
  match Instrument.instrument Instrument.Untimed ~allowed g' with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "re-instrumentation must be rejected"

let responses_agree (a : Mechanism.reply) (b : Mechanism.reply) =
  match (a.Mechanism.response, b.Mechanism.response) with
  | Mechanism.Granted v, Mechanism.Granted w -> Value.equal v w
  | Mechanism.Denied _, Mechanism.Denied _ -> true
  | Mechanism.Hung, Mechanism.Hung -> true
  | Mechanism.Failed _, Mechanism.Failed _ -> true
  | _ -> false

(* The paper defines surveillance BY the instrumentation; the interpreter is
   our optimization. They must agree pointwise, on every generated program
   and policy. *)
let prop_instrumentation_agrees_with_interpreter =
  let params = Generator.default in
  let arb =
    QCheck.pair (Generator.arbitrary params)
      (QCheck.make
         ~print:(fun l -> String.concat "," (List.map string_of_int l))
         QCheck.Gen.(map (fun m -> List.filteri (fun i _ -> m land (1 lsl i) <> 0) [ 0; 1 ])
           (int_bound 3)))
  in
  qtest ~count:200 "instrumented flowchart = taint interpreter (untimed)" arb
    (fun (prog, allowed_list) ->
      let g = Compile.compile prog in
      let policy = Policy.allow allowed_list in
      let m_interp = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) g in
      let m_instr = Instrument.mechanism Instrument.Untimed ~policy g in
      Seq.for_all
        (fun a ->
          responses_agree (Mechanism.respond m_interp a) (Mechanism.respond m_instr a))
        (Space.enumerate (Generator.space_for params)))

let prop_timed_instrumentation_agrees =
  let params = Generator.default in
  qtest ~count:150 "timed instrumented flowchart = timed taint interpreter"
    (Generator.arbitrary params)
    (fun prog ->
      let g = Compile.compile prog in
      let policy = Policy.allow [ 0 ] in
      let m_interp = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Timed policy) g in
      let m_instr = Instrument.mechanism Instrument.Timed_variant ~policy g in
      Seq.for_all
        (fun a ->
          responses_agree (Mechanism.respond m_interp a) (Mechanism.respond m_instr a))
        (Space.enumerate (Generator.space_for params)))

(* --- The theorems, checked on random programs --------------------------- *)

let policy_cases = [ Policy.allow_none; Policy.allow [ 0 ]; Policy.allow [ 1 ] ]

(* Theorem 3: surveillance is sound when running time is unobservable. *)
let prop_theorem3_surveillance_sound =
  let params = Generator.default in
  qtest ~count:200 "Theorem 3: surveillance sound (untimed) on random programs"
    (Generator.arbitrary params)
    (fun prog ->
      let g = Compile.compile prog in
      let space = Generator.space_for params in
      List.for_all
        (fun policy ->
          Soundness.is_sound policy
            (Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) g)
            space)
        policy_cases)

(* Theorem 3': the timed variant stays sound with time observable. *)
let prop_theorem3'_timed_sound =
  let params = Generator.default in
  qtest ~count:200 "Theorem 3': timed surveillance sound (timed view)"
    (Generator.arbitrary params)
    (fun prog ->
      let g = Compile.compile prog in
      let space = Generator.space_for params in
      List.for_all
        (fun policy ->
          Soundness.is_sound ~config:Soundness.timed policy
            (Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Timed policy) g)
            space)
        policy_cases)

(* The instrumented timed mechanism is a DIFFERENT executable from the
   timed interpreter (its step counts include the taint bookkeeping), so
   its Theorem-3' property needs its own check: sound under the timed view
   on random programs. *)
let prop_timed_instrumented_sound_timed_view =
  let params = Generator.default in
  qtest ~count:150 "Theorem 3' holds for the instrumented flowchart's own clock"
    (Generator.arbitrary params)
    (fun prog ->
      let g = Compile.compile prog in
      let space = Generator.space_for params in
      List.for_all
        (fun policy ->
          Soundness.is_sound ~config:Soundness.timed policy
            (Instrument.mechanism Instrument.Timed_variant ~policy g)
            space)
        policy_cases)

(* High-water is sound too, and never more complete than surveillance. *)
let prop_high_water_sound_and_below_surveillance =
  let params = Generator.default in
  qtest ~count:200 "high-water sound and <= surveillance"
    (Generator.arbitrary params)
    (fun prog ->
      let g = Compile.compile prog in
      let q = Interp.graph_program g in
      let space = Generator.space_for params in
      List.for_all
        (fun policy ->
          let mh = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.High_water policy) g in
          let ms = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) g in
          Soundness.is_sound policy mh space
          && Completeness.as_complete_as ms mh ~q space = Ok ())
        policy_cases)

(* Every mode yields a genuine protection mechanism: grants match Q. *)
let prop_modes_are_protection_mechanisms =
  let params = Generator.default in
  qtest ~count:150 "all modes are protection mechanisms for Q"
    (Generator.arbitrary params)
    (fun prog ->
      let g = Compile.compile prog in
      let q = Interp.graph_program g in
      let space = Generator.space_for params in
      List.for_all
        (fun mode ->
          Mechanism.check_protects
            (Dynamic.mechanism (Dynamic.config ~mode (Policy.allow [ 0 ])) g)
            q space
          = Ok ())
        Dynamic.all_modes)

(* Surveillance never grants less than the maximal mechanism forbids:
   i.e. maximal >= surveillance always. *)
let prop_maximal_dominates_surveillance =
  let params = Generator.default in
  qtest ~count:150 "maximal >= surveillance on random programs"
    (Generator.arbitrary params)
    (fun prog ->
      let g = Compile.compile prog in
      let q = Interp.graph_program g in
      let space = Generator.space_for params in
      List.for_all
        (fun policy ->
          let ms = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) g in
          let mx = Maximal.build policy q space in
          Completeness.as_complete_as mx ms ~q space = Ok ())
        policy_cases)

(* Example 4: mechanisms that leak through their violation notices. The
   chatty variant names the offending taint set; the taint set is
   path-dependent, so inside one policy class different secrets can draw
   different notices. *)
let test_chatty_notices_leak () =
  let prog =
    Ast.prog ~name:"chatty" ~arity:2
      (Ast.If (x 0 =: i 0, Ast.Assign (Var.Out, x 0), Ast.Assign (Var.Out, x 0 +: x 1)))
  in
  let g = Compile.compile prog in
  let policy = Policy.allow_none in
  let space = Space.ints ~lo:0 ~hi:3 ~arity:2 in
  let plain = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) g in
  check_sound "single notice: sound (denies everywhere)" policy plain space;
  let chatty =
    Dynamic.mechanism
      (Dynamic.config ~chatty_notices:true ~mode:Dynamic.Surveillance policy)
    g
  in
  check_unsound "taint-naming notices split a class" policy chatty space;
  (* The notices really do differ in text, not just in principle. *)
  let notice_at inputs =
    match (Mechanism.respond chatty (ints inputs)).Mechanism.response with
    | Mechanism.Denied n -> n
    | _ -> Alcotest.fail "expected denial"
  in
  Alcotest.(check bool) "distinct notice texts" false
    (String.equal (notice_at [ 0; 0 ]) (notice_at [ 1; 0 ]))

(* Theorem 3's side condition: under an operand-sized cost model, even the
   timed mechanism leaks through granted-run durations. *)
let test_cost_model_breaks_timed_soundness () =
  let prog =
    Ast.prog ~name:"dead-multiply" ~arity:1
      (Ast.seq [ Ast.Assign (Var.Reg 0, x 0 *: x 0); Ast.Assign (Var.Out, i 1) ])
  in
  let g = Compile.compile prog in
  let policy = Policy.allow_none in
  let space = Space.ints ~lo:0 ~hi:7 ~arity:1 in
  let uniform = Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Timed policy) g in
  check_sound "uniform cost: timed-sound" ~config:Soundness.timed policy uniform
    space;
  let sized =
    Dynamic.mechanism
      (Dynamic.config ~cost:Secpol_flowgraph.Expr.Operand_sized
         ~mode:Dynamic.Timed policy)
      g
  in
  (* Values still fine... *)
  check_sound "operand-sized: still value-sound" policy sized space;
  (* ... but the clock betrays the dead operand. *)
  check_unsound "operand-sized: timed-UNSOUND" ~config:Soundness.timed policy
    sized space

let test_cost_model_agrees_between_interpreters () =
  (* The plain interpreter and the monitor count the same (costed) steps on
     granted runs. *)
  let prog =
    Ast.prog ~name:"mix" ~arity:1
      (Ast.seq
         [ Ast.Assign (Var.Reg 0, (x 0 *: i 3) +: (x 0 /: i 2));
           Ast.Assign (Var.Out, x 0) ])
  in
  let g = Compile.compile prog in
  let policy = Policy.allow [ 0 ] in
  List.iter
    (fun cost ->
      let cfg = Dynamic.config ~cost ~mode:Dynamic.Surveillance policy in
      List.iter
        (fun v ->
          let plain = Interp.run_graph ~cost g (ints [ v ]) in
          let monitored = Dynamic.run cfg g (ints [ v ]) in
          Alcotest.(check int)
            (Printf.sprintf "steps agree at %d" v)
            plain.Program.steps monitored.Mechanism.steps)
        [ 0; 3; 7 ])
    [ Secpol_flowgraph.Expr.Uniform; Secpol_flowgraph.Expr.Operand_sized ]

(* --- The observer agrees with the enforcer ------------------------------ *)

(* [Dynamic.out_taint] reports the taint the Scoped monitor's halt box
   checks. So wherever it answers [Ok t], the Scoped monitor under
   allow(J) grants exactly when [t ⊆ J], and an [Error] never pairs with a
   grant. (test_lint's static ⊇ dynamic inclusion alone would also pass an
   observer that always answered ∅.) The result is the first input and
   policy at which the two disagree, if any. *)
let observer_disagreement g space =
  let inputs = List.of_seq (Space.enumerate space) in
  List.find_map
    (fun allowed ->
      let cfg = Dynamic.config ~mode:Dynamic.Scoped (Policy.allow_set allowed) in
      List.find_map
        (fun a ->
          let granted =
            match (Dynamic.run cfg g a).Mechanism.response with
            | Mechanism.Granted _ -> true
            | Mechanism.Denied _ | Mechanism.Hung | Mechanism.Failed _ -> false
          in
          let agrees =
            match Dynamic.out_taint g a with
            | Ok t -> granted = Iset.subset t allowed
            | Error _ -> not granted
          in
          if agrees then None
          else
            Some
              (Printf.sprintf "allow%s on %s" (Iset.to_string allowed)
                 (Harness.show_input a)))
        inputs)
    (List.init (1 lsl g.Graph.arity) Iset.of_mask)

let test_observer_agrees_corpus () =
  List.iter
    (fun (e : Paper.entry) ->
      match observer_disagreement (Paper.graph e) e.Paper.space with
      | None -> ()
      | Some where ->
          Alcotest.failf "%s: out_taint disagrees with the scoped monitor at %s"
            e.Paper.name where)
    Paper.all

let prop_observer_agrees =
  let params = Generator.default in
  qtest ~count:200 "out_taint agrees with the scoped monitor"
    (Generator.arbitrary params)
    (fun prog ->
      observer_disagreement (Compile.compile prog) (Generator.space_for params)
      = None)

let test_non_allow_policy_rejected () =
  let g = Paper.graph Paper.forgetting in
  let f = Policy.filter ~name:"custom" (fun _ -> Value.unit) in
  (match Dynamic.config ~mode:Dynamic.Surveillance f with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "filter policy must be rejected");
  match Instrument.mechanism Instrument.Untimed ~policy:f g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "filter policy must be rejected by instrumentation"

let () =
  Alcotest.run "secpol-taint"
    [
      ( "section3",
        [
          Alcotest.test_case "forgetting-surveillance" `Quick test_forgetting_surveillance;
          Alcotest.test_case "forgetting-high-water" `Quick test_forgetting_high_water;
          Alcotest.test_case "not-maximal" `Quick test_surveillance_not_maximal;
        ] );
      ( "timed",
        [
          Alcotest.test_case "theorem3'" `Quick test_timed_mode;
          Alcotest.test_case "denies-at-decision" `Quick test_timed_denies_at_decision;
        ] );
      ( "scoped",
        [
          Alcotest.test_case "trap" `Quick test_scoped_trap;
          Alcotest.test_case "sound-sometimes" `Quick test_scoped_helps_soundly_sometimes;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "structure" `Quick test_instrumented_structure;
          Alcotest.test_case "no-reinstrument" `Quick test_instrumented_rejects_reinstrumentation;
          prop_instrumentation_agrees_with_interpreter;
          prop_timed_instrumentation_agrees;
          Alcotest.test_case "non-allow-rejected" `Quick test_non_allow_policy_rejected;
        ] );
      ( "notices",
        [ Alcotest.test_case "chatty-notices-leak" `Quick test_chatty_notices_leak ] );
      ( "observer",
        [
          Alcotest.test_case "agrees-on-corpus" `Quick test_observer_agrees_corpus;
          prop_observer_agrees;
        ] );
      ( "cost-model",
        [
          Alcotest.test_case "breaks-timed" `Quick test_cost_model_breaks_timed_soundness;
          Alcotest.test_case "interpreters-agree" `Quick test_cost_model_agrees_between_interpreters;
        ] );
      ( "theorems",
        [
          prop_theorem3_surveillance_sound;
          prop_theorem3'_timed_sound;
          prop_timed_instrumented_sound_timed_view;
          prop_high_water_sound_and_below_surveillance;
          prop_modes_are_protection_mechanisms;
          prop_maximal_dominates_surveillance;
        ] );
    ]
