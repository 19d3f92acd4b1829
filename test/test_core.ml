(* The basic model of Section 2: programs, policies, mechanisms, soundness,
   completeness, join (Theorem 1) and the maximal mechanism (Theorem 2). *)

open Util
module Iset = Secpol_core.Iset

(* A concrete little program used throughout: Q(x0, x1) = x0 + 2*x1. *)
let q_linear =
  Program.of_fun ~name:"linear" ~arity:2 (fun a ->
      Value.int (Value.to_int a.(0) + (2 * Value.to_int a.(1))))

(* Q(x0, x1) = x0 (ignores the second input entirely). *)
let q_first =
  Program.of_fun ~name:"first" ~arity:2 (fun a -> a.(0))

let space2 = Space.ints ~lo:0 ~hi:3 ~arity:2

(* --- Iset ----------------------------------------------------------- *)

let test_iset_basics () =
  let s = Iset.of_list [ 0; 2; 5 ] in
  Alcotest.(check (list int)) "to_list" [ 0; 2; 5 ] (Iset.to_list s);
  Alcotest.(check int) "cardinal" 3 (Iset.cardinal s);
  Alcotest.(check bool) "mem" true (Iset.mem 2 s);
  Alcotest.(check bool) "not mem" false (Iset.mem 1 s);
  Alcotest.check iset_testable "union"
    (Iset.of_list [ 0; 1; 2; 5 ])
    (Iset.union s (Iset.singleton 1));
  Alcotest.check iset_testable "inter"
    (Iset.singleton 2)
    (Iset.inter s (Iset.of_list [ 1; 2; 3 ]));
  Alcotest.check iset_testable "diff"
    (Iset.of_list [ 0; 5 ])
    (Iset.diff s (Iset.of_list [ 2; 3 ]));
  Alcotest.(check bool) "subset yes" true
    (Iset.subset (Iset.of_list [ 0; 5 ]) s);
  Alcotest.(check bool) "subset no" false
    (Iset.subset (Iset.of_list [ 0; 1 ]) s)

let test_iset_full () =
  Alcotest.check iset_testable "full 0" Iset.empty (Iset.full 0);
  Alcotest.check iset_testable "full 3" (Iset.of_list [ 0; 1; 2 ]) (Iset.full 3);
  Alcotest.(check int) "mask roundtrip" 0b101
    (Iset.to_mask (Iset.of_list [ 0; 2 ]));
  Alcotest.check iset_testable "of_mask" (Iset.of_list [ 1; 3 ]) (Iset.of_mask 0b1010)

let iset_gen =
  QCheck.Gen.(map Iset.of_list (list_size (int_bound 8) (int_bound 20)))

let iset_arb = QCheck.make ~print:Iset.to_string iset_gen

let prop_iset_union_subset =
  qtest "iset: a and b are subsets of their union"
    (QCheck.pair iset_arb iset_arb)
    (fun (a, b) ->
      let u = Iset.union a b in
      Iset.subset a u && Iset.subset b u)

let prop_iset_fold_cardinal =
  qtest "iset: fold visits each member exactly once" iset_arb (fun s ->
      Iset.fold (fun _ n -> n + 1) s 0 = Iset.cardinal s)

(* --- Space ----------------------------------------------------------- *)

let test_space_enumerate () =
  let s = Space.ints ~lo:0 ~hi:1 ~arity:2 in
  let all = List.of_seq (Space.enumerate s) in
  Alcotest.(check int) "count" 4 (List.length all);
  Alcotest.(check int) "size agrees" (Space.size s) (List.length all);
  (* Lexicographic order, leftmost coordinate slowest. *)
  let expected = [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ] in
  List.iter2
    (fun got want ->
      Alcotest.(check (list int)) "tuple" want
        (Array.to_list (Array.map Value.to_int got)))
    all expected

let test_space_persistent () =
  let s = Space.ints ~lo:0 ~hi:2 ~arity:2 in
  let seq = Space.enumerate s in
  Alcotest.(check int) "first pass" 9 (Seq.length seq);
  Alcotest.(check int) "second pass" 9 (Seq.length seq)

let test_space_restrict () =
  let s = Space.ints ~lo:0 ~hi:2 ~arity:2 in
  let s' = Space.restrict s 0 (Value.int 1) in
  Alcotest.(check int) "restricted size" 3 (Space.size s');
  Seq.iter
    (fun a -> Alcotest.(check int) "pinned" 1 (Value.to_int a.(0)))
    (Space.enumerate s')

let test_space_zero_arity () =
  let s = Space.make [||] in
  Alcotest.(check int) "one empty tuple" 1 (Seq.length (Space.enumerate s))

(* --- Policy ----------------------------------------------------------- *)

let test_policy_images () =
  let a = ints [ 1; 2; 3 ] in
  Alcotest.check value_testable "allow()" (Value.tuple [])
    (Policy.image Policy.allow_none a);
  Alcotest.check value_testable "allow(0,2)"
    (Value.tuple [ Value.int 1; Value.int 3 ])
    (Policy.image (Policy.allow [ 0; 2 ]) a);
  Alcotest.check value_testable "allow all"
    (Value.tuple [ Value.int 1; Value.int 2; Value.int 3 ])
    (Policy.image (Policy.allow_all ~arity:3) a)

let test_policy_equiv () =
  let p = Policy.allow [ 1 ] in
  Alcotest.(check bool) "same allowed coord" true
    (Policy.equiv p (ints [ 0; 7 ]) (ints [ 5; 7 ]));
  Alcotest.(check bool) "different allowed coord" false
    (Policy.equiv p (ints [ 0; 7 ]) (ints [ 0; 8 ]))

let test_policy_indices () =
  let p = Policy.allow [ 0; 2 ] in
  (match Policy.disallowed_indices p ~arity:4 with
  | Some d -> Alcotest.check iset_testable "complement" (Iset.of_list [ 1; 3 ]) d
  | None -> Alcotest.fail "expected Some");
  let f = Policy.filter ~name:"f" (fun _ -> Value.unit) in
  Alcotest.(check bool) "filter has no index set" true
    (Policy.allowed_indices f = None)

(* --- Mechanism basics ------------------------------------------------- *)

let test_program_as_own_mechanism () =
  let m = Mechanism.of_program q_linear in
  check_grants "passes outputs through" m [ 1; 2 ] 5;
  match Mechanism.check_protects m q_linear space2 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "Q is a protection mechanism for itself"

let test_pull_the_plug () =
  let m = Mechanism.pull_the_plug 2 in
  check_denies "always denies" m [ 0; 0 ];
  check_denies "always denies" m [ 3; 3 ];
  (match Mechanism.check_protects m q_linear space2 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "plug is a protection mechanism for anything");
  (* Trivially sound for every policy (Example 3). *)
  check_sound "plug sound for allow()" Policy.allow_none m space2;
  check_sound "plug sound for allow(0)" (Policy.allow [ 0 ]) m space2

let test_check_protects_catches_liars () =
  let liar =
    Mechanism.make ~name:"liar" ~arity:2 (fun _ ->
        { Mechanism.response = Mechanism.Granted (Value.int 42); steps = 1 })
  in
  match Mechanism.check_protects liar q_linear space2 with
  | Ok () -> Alcotest.fail "the liar is not a mechanism for q_linear"
  | Error c ->
      Alcotest.(check bool) "witness input is in space" true
        (Space.mem space2 c.Mechanism.input)

(* --- Soundness -------------------------------------------------------- *)

let test_soundness_examples () =
  (* Q ignoring x1 is sound for allow(0) but unsound for allow(1). *)
  let m = Mechanism.of_program q_first in
  check_sound "first sound for allow(0)" (Policy.allow [ 0 ]) m space2;
  check_unsound "first unsound for allow(1)" (Policy.allow [ 1 ]) m space2;
  (* The full program leaks under any proper restriction. *)
  let ml = Mechanism.of_program q_linear in
  check_unsound "linear unsound for allow(0)" (Policy.allow [ 0 ]) ml space2;
  check_sound "linear sound for allow(all)" (Policy.allow_all ~arity:2) ml space2

let test_soundness_witness_is_equivalent_pair () =
  match Soundness.check (Policy.allow [ 0 ]) (Mechanism.of_program q_linear) space2 with
  | Soundness.Sound -> Alcotest.fail "expected unsound"
  | Soundness.Unsound w ->
      Alcotest.(check bool) "same policy image" true
        (Policy.equiv (Policy.allow [ 0 ]) w.Soundness.input_a w.Soundness.input_b);
      Alcotest.(check bool) "observations differ" false
        (Program.Obs.equal w.Soundness.obs_a w.Soundness.obs_b)

(* A mechanism that leaks only through the CHOICE of violation notice
   (Example 4 / Denning–Rotenberg): denials must count as outputs. *)
let test_violation_notice_leak () =
  let m =
    Mechanism.make ~name:"notice-leak" ~arity:2 (fun a ->
        {
          Mechanism.response =
            Mechanism.Denied (if Value.to_int a.(1) = 0 then "n0" else "n1");
          steps = 1;
        })
  in
  check_unsound "distinct notices leak x1" (Policy.allow [ 0 ]) m space2;
  (* Identifying all notices (the completeness convention) hides it. *)
  let config = { Soundness.default with Soundness.identify_violations = true } in
  check_sound "identified notices do not" ~config (Policy.allow [ 0 ]) m space2

(* Timing: a mechanism constant in value but whose step count tracks x1. *)
let test_timing_soundness () =
  let m =
    Mechanism.make ~name:"slow" ~arity:2 (fun a ->
        {
          Mechanism.response = Mechanism.Granted (Value.int 0);
          steps = 1 + Value.to_int a.(1);
        })
  in
  let q0 = Program.of_fun ~name:"zero" ~arity:2 (fun _ -> Value.int 0) in
  ignore q0;
  check_sound "value view: sound" (Policy.allow [ 0 ]) m space2;
  check_unsound "timed view: unsound" ~config:Soundness.timed (Policy.allow [ 0 ])
    m space2

(* --- Completeness and join (Theorem 1) -------------------------------- *)

(* Two deliberately partial mechanisms for q_first under allow(0): one
   serves even x0, the other serves x0 < 2. Both sound; incomparable. *)
let serve_if name pred =
  Mechanism.make ~name ~arity:2 (fun a ->
      if pred (Value.to_int a.(0)) then
        { Mechanism.response = Mechanism.Granted a.(0); steps = 1 }
      else { Mechanism.response = Mechanism.Denied "\xce\x9b"; steps = 1 })

let m_even = serve_if "even" (fun x -> x mod 2 = 0)
let m_small = serve_if "small" (fun x -> x < 2)

let test_completeness_ratio () =
  (* x0 in 0..3: even serves {0,2}, small serves {0,1}. *)
  check_ratio "even serves half" ~expected:0.5 m_even ~q:q_first space2;
  check_ratio "small serves half" ~expected:0.5 m_small ~q:q_first space2;
  check_ratio "plug serves none" ~expected:0.0
    (Mechanism.pull_the_plug 2) ~q:q_first space2;
  check_ratio "Q serves all" ~expected:1.0
    (Mechanism.of_program q_first) ~q:q_first space2

let test_completeness_order () =
  Alcotest.(check bool) "incomparable" true
    (Completeness.compare m_even m_small ~q:q_first space2 = Completeness.Incomparable);
  Alcotest.(check bool) "Q more complete than even" true
    (Completeness.compare (Mechanism.of_program q_first) m_even ~q:q_first space2
    = Completeness.More_complete);
  Alcotest.(check bool) "plug less complete than small" true
    (Completeness.compare (Mechanism.pull_the_plug 2) m_small ~q:q_first space2
    = Completeness.Less_complete)

let test_join_theorem1 () =
  let j = Mechanism.join m_even m_small in
  (* Join of sound mechanisms is sound... *)
  check_sound "m_even sound" (Policy.allow [ 0 ]) m_even space2;
  check_sound "m_small sound" (Policy.allow [ 0 ]) m_small space2;
  check_sound "join sound" (Policy.allow [ 0 ]) j space2;
  (* ... and at least as complete as each component. *)
  (match Completeness.as_complete_as j m_even ~q:q_first space2 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "join >= m_even");
  (match Completeness.as_complete_as j m_small ~q:q_first space2 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "join >= m_small");
  (* Here strictly more: serves {0,1,2} of 4. *)
  check_ratio "join serves three quarters" ~expected:0.75 j ~q:q_first space2;
  (* Still a protection mechanism. *)
  match Mechanism.check_protects j q_first space2 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "join is a protection mechanism"

let test_join_list () =
  let j = Mechanism.join_list ~arity:2 [ m_even; m_small ] in
  check_ratio "big join" ~expected:0.75 j ~q:q_first space2;
  let empty = Mechanism.join_list ~arity:2 [] in
  check_ratio "empty join = plug" ~expected:0.0 empty ~q:q_first space2

(* --- Maximal mechanism (Theorem 2) ------------------------------------ *)

let test_maximal_serves_constant_classes () =
  (* q_first under allow(0): Q constant on every class -> maximal = Q. *)
  let mx = Maximal.build (Policy.allow [ 0 ]) q_first space2 in
  check_ratio "maximal complete for independent Q" ~expected:1.0 mx ~q:q_first
    space2;
  check_sound "maximal sound" (Policy.allow [ 0 ]) mx space2;
  (* q_linear under allow(0): no class is constant -> maximal = plug. *)
  let mx' = Maximal.build (Policy.allow [ 0 ]) q_linear space2 in
  check_ratio "maximal empty for dependent Q" ~expected:0.0 mx' ~q:q_linear space2

let test_maximal_dominates_any_sound_mechanism () =
  (* Against a hand-rolled sound mechanism for q_first. *)
  let mx = Maximal.build (Policy.allow [ 0 ]) q_first space2 in
  List.iter
    (fun m ->
      match Completeness.as_complete_as mx m ~q:q_first space2 with
      | Ok () -> ()
      | Error a ->
          Alcotest.failf "maximal misses input (%s) served by %s"
            (String.concat "," (Array.to_list (Array.map Value.to_string a)))
            m.Mechanism.name)
    [ m_even; m_small; Mechanism.join m_even m_small; Mechanism.pull_the_plug 2 ]

let test_maximal_timed_is_stricter () =
  (* A program constant in value per class but with class-varying time. *)
  let q =
    Program.make ~name:"timed" ~arity:2 (fun a ->
        {
          Program.result = Program.Value (Value.int 0);
          steps = 1 + Value.to_int a.(1);
        })
  in
  let mx_untimed = Maximal.build (Policy.allow [ 0 ]) q space2 in
  let mx_timed = Maximal.build ~view:`Timed (Policy.allow [ 0 ]) q space2 in
  check_ratio "untimed maximal serves all" ~expected:1.0 mx_untimed ~q space2;
  check_ratio "timed maximal serves none" ~expected:0.0 mx_timed ~q space2

let test_granted_classes () =
  let classes q = Maximal.classes_of_table (Maximal.table `Value (Policy.allow [ 0 ]) q space2) in
  let served, total = classes q_first in
  Alcotest.(check (pair int int)) "all classes served" (4, 4) (served, total);
  let served', total' = classes q_linear in
  Alcotest.(check (pair int int)) "no class served" (0, 4) (served', total')

(* --- Edge cases --------------------------------------------------------- *)

let test_iset_bounds () =
  (match Iset.singleton 99 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "indices beyond the mask width must be rejected");
  match Iset.of_mask (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative masks must be rejected"

let test_space_bad_bounds () =
  (match Space.ints ~lo:3 ~hi:1 ~arity:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "hi < lo must be rejected");
  match Space.make [| [||] |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty domains must be rejected"

let test_join_arity_mismatch () =
  let m1 = Mechanism.pull_the_plug 2 and m2 = Mechanism.pull_the_plug 3 in
  match Mechanism.join m1 m2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "joining mechanisms of different arity must fail"

(* Soundness against a content-dependent (filter) policy: the first input
   gates whether the second is revealed. *)
let test_soundness_filter_policy () =
  let gate =
    Policy.filter ~name:"gate" (fun a ->
        if Value.to_int a.(0) = 0 then Value.pair a.(0) a.(1)
        else Value.pair a.(0) (Value.str "#"))
  in
  let q_gated =
    Program.of_fun ~name:"gated" ~arity:2 (fun a ->
        if Value.to_int a.(0) = 0 then a.(1) else Value.int (-1))
  in
  check_sound "gated program respects its gate" gate
    (Mechanism.of_program q_gated) space2;
  check_unsound "ungated program does not" gate
    (Mechanism.of_program (Program.of_fun ~name:"leak" ~arity:2 (fun a -> a.(1))))
    space2;
  (* The maximal mechanism handles filter policies too. *)
  let mx = Maximal.build gate q_linear space2 in
  check_sound "maximal sound for the filter" gate mx space2

(* Property: the maximal mechanism built for random finite functions is
   always sound and always at least as complete as the program-as-mechanism
   when that happens to be sound. *)
let random_table_program rng =
  (* A random function {0..2}^2 -> {0..1} presented as a program. *)
  let table = Array.init 9 (fun _ -> Random.State.int rng 2) in
  Program.of_fun ~name:"table" ~arity:2 (fun a ->
      Value.int table.((3 * Value.to_int a.(0)) + Value.to_int a.(1)))

let prop_maximal_sound_random =
  qtest ~count:60 "maximal is sound for random finite programs"
    (QCheck.make QCheck.Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let q = random_table_program rng in
      let space = Space.ints ~lo:0 ~hi:2 ~arity:2 in
      let policy = Policy.allow [ Random.State.int rng 2 ] in
      let mx = Maximal.build policy q space in
      Soundness.check policy mx space = Soundness.Sound
      && Mechanism.check_protects mx q space = Ok ())

let () =
  Alcotest.run "secpol-core"
    [
      ( "iset",
        [
          Alcotest.test_case "basics" `Quick test_iset_basics;
          Alcotest.test_case "full-and-masks" `Quick test_iset_full;
          prop_iset_union_subset;
          prop_iset_fold_cardinal;
        ] );
      ( "space",
        [
          Alcotest.test_case "enumerate" `Quick test_space_enumerate;
          Alcotest.test_case "persistent" `Quick test_space_persistent;
          Alcotest.test_case "restrict" `Quick test_space_restrict;
          Alcotest.test_case "zero-arity" `Quick test_space_zero_arity;
        ] );
      ( "policy",
        [
          Alcotest.test_case "images" `Quick test_policy_images;
          Alcotest.test_case "equiv" `Quick test_policy_equiv;
          Alcotest.test_case "indices" `Quick test_policy_indices;
        ] );
      ( "mechanism",
        [
          Alcotest.test_case "program-as-own" `Quick test_program_as_own_mechanism;
          Alcotest.test_case "pull-the-plug" `Quick test_pull_the_plug;
          Alcotest.test_case "check-protects" `Quick test_check_protects_catches_liars;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "examples" `Quick test_soundness_examples;
          Alcotest.test_case "witness" `Quick test_soundness_witness_is_equivalent_pair;
          Alcotest.test_case "notice-leak" `Quick test_violation_notice_leak;
          Alcotest.test_case "timing" `Quick test_timing_soundness;
        ] );
      ( "completeness",
        [
          Alcotest.test_case "ratio" `Quick test_completeness_ratio;
          Alcotest.test_case "order" `Quick test_completeness_order;
          Alcotest.test_case "join-theorem1" `Quick test_join_theorem1;
          Alcotest.test_case "join-list" `Quick test_join_list;
        ] );
      ( "maximal",
        [
          Alcotest.test_case "constant-classes" `Quick test_maximal_serves_constant_classes;
          Alcotest.test_case "dominates" `Quick test_maximal_dominates_any_sound_mechanism;
          Alcotest.test_case "timed-stricter" `Quick test_maximal_timed_is_stricter;
          Alcotest.test_case "granted-classes" `Quick test_granted_classes;
          prop_maximal_sound_random;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "iset-bounds" `Quick test_iset_bounds;
          Alcotest.test_case "space-bad-bounds" `Quick test_space_bad_bounds;
          Alcotest.test_case "join-arity" `Quick test_join_arity_mismatch;
          Alcotest.test_case "filter-policy" `Quick test_soundness_filter_policy;
        ] );
    ]
