(* The refined yardstick against its oracle.

   Partition refinement (Analyze's refined path over the Refine kernel)
   promises answers bit-identical to the enumerate-everything oracle
   (Maximal, Soundness): same class tables, same mechanisms, same verdicts
   and witnesses, same granted/total tallies — over the corpus, over random
   programs, over adversarial partitions (all singletons, one giant class,
   the degenerate empty-product space), at jobs 1 and 4, cached or not.
   This suite is the differential gate: the brute-force oracle stays
   in-tree exactly so these comparisons stay meaningful. *)

open Util
module Refine = Secpol_core.Refine
module Cache = Secpol_engine.Cache
module Analyze = Secpol_engine.Analyze
module Harness = Secpol_fault.Harness
module Paper = Secpol_corpus.Paper_programs
module Generator = Secpol_corpus.Generator
module Compile = Secpol_flowgraph.Compile
module Interp = Secpol_flowgraph.Interp
module Dynamic = Secpol_taint.Dynamic

let fp = Refine.table_fingerprint
let verdict_str v = Format.asprintf "%a" Soundness.pp_verdict v
let views = [ (`Value, "value"); (`Timed, "timed") ]
let both_jobs = [ 1; 4 ]

(* The refined class table through Analyze, with its refinement stats. *)
let refined_table ?cache ~view ~jobs policy q space =
  let tbl, t = Analyze.table (Analyze.config ?cache ~view ~jobs space) policy q in
  (tbl, Option.get t.Analyze.refine)

(* Every comparison between the refined path and the brute oracle for one
   (policy, program, space, view), at each jobs: tables, class tallies,
   runs, grant counts and mechanisms. *)
let check_against_oracle msg view policy q space =
  let oracle_tbl = Maximal.table view policy q space in
  let oracle_fp = fp oracle_tbl in
  let oracle_classes = Maximal.classes_of_table oracle_tbl in
  let brute_m = Maximal.of_table policy q oracle_tbl in
  let pt = Refine.partition policy space in
  let runs =
    List.map
      (fun jobs ->
        let tbl, stats = refined_table ~view ~jobs policy q space in
        Alcotest.(check string)
          (Printf.sprintf "%s: refined table (jobs=%d) = oracle" msg jobs)
          oracle_fp (fp tbl);
        Alcotest.(check (pair int int))
          (Printf.sprintf "%s: refined classes (jobs=%d) = oracle" msg jobs)
          oracle_classes
          (Maximal.classes_of_table tbl);
        Alcotest.(check bool)
          (msg ^ ": runs never exceed the space")
          true
          (stats.Refine.runs <= stats.Refine.space_size
          && stats.Refine.saved = stats.Refine.space_size - stats.Refine.runs);
        (* The grant tally read off the table equals the brute point count. *)
        Alcotest.(check (pair int int))
          (msg ^ ": grant count off the table = Completeness.grant_count")
          (Completeness.grant_count brute_m ~q space)
          (Refine.grant_count_of_table pt tbl);
        (* The mechanisms reply identically everywhere. *)
        let refined_m, _ = Analyze.maximal (Analyze.config ~view ~jobs space) policy q in
        Seq.iter
          (fun a ->
            Alcotest.(check string)
              (Printf.sprintf "%s: maximal reply (jobs=%d) on %s" msg jobs
                 (Harness.show_input a))
              (show_mech_reply (Mechanism.respond brute_m a))
              (show_mech_reply (Mechanism.respond refined_m a)))
          (Space.enumerate space);
        stats.Refine.runs)
      both_jobs
  in
  Alcotest.(check (list int))
    (msg ^ ": runs independent of jobs")
    (List.map (fun _ -> List.hd runs) runs)
    runs

let check_soundness_against_oracle msg (config : Soundness.config) policy m
    space =
  let oracle = verdict_str (Soundness.check ~config policy m space) in
  List.iter
    (fun jobs ->
      let cfg =
        Analyze.config ~view:config.Soundness.view
          ~identify_violations:config.Soundness.identify_violations ~jobs space
      in
      Alcotest.(check string)
        (Printf.sprintf "%s: refined verdict (jobs=%d) = oracle" msg jobs)
        oracle
        (verdict_str (fst (Analyze.soundness cfg policy m))))
    both_jobs

(* [m] with every reply counted, safely across domains. *)
let counting (m : Mechanism.t) =
  let calls = Atomic.make 0 in
  ( Mechanism.make ~name:m.Mechanism.name ~arity:m.Mechanism.arity (fun a ->
        Atomic.incr calls;
        Mechanism.respond m a),
    calls )

(* --- corpus x allow(J) x views ----------------------------------------- *)

let test_corpus_differential () =
  List.iter
    (fun (e : Paper.entry) ->
      let q = Paper.program e in
      let arity = e.Paper.prog.Secpol_flowgraph.Ast.arity in
      List.iter
        (fun policy ->
          List.iter
            (fun (view, vname) ->
              check_against_oracle
                (Printf.sprintf "%s/%s/%s" e.Paper.name (Policy.name policy)
                   vname)
                view policy q e.Paper.space)
            views)
        (Harness.policies_of_arity arity))
    Paper.all

let test_corpus_soundness_differential () =
  List.iter
    (fun (e : Paper.entry) ->
      let g = Paper.graph e in
      let arity = e.Paper.prog.Secpol_flowgraph.Ast.arity in
      List.iter
        (fun policy ->
          let m =
            Dynamic.mechanism
              (Dynamic.config ~mode:Dynamic.Surveillance policy)
              g
          in
          List.iter
            (fun config ->
              check_soundness_against_oracle
                (Printf.sprintf "%s/%s" e.Paper.name (Policy.name policy))
                config policy m e.Paper.space)
            [ Soundness.default; Soundness.timed ];
          (* The raw program is the adversarial mechanism: mixed classes
             abound, so witnesses are actually exercised. *)
          check_soundness_against_oracle
            (Printf.sprintf "%s/%s/raw-Q" e.Paper.name (Policy.name policy))
            Soundness.default policy
            (Mechanism.of_program (Paper.program e))
            e.Paper.space)
        (Harness.policies_of_arity arity))
    Paper.all

(* --- adversarial partitions -------------------------------------------- *)

(* A program whose observable genuinely varies, so one-giant-class is mixed
   and witnesses exist. *)
let q_sum =
  Program.of_fun ~name:"sum" ~arity:2 (fun a ->
      Value.int (Value.to_int a.(0) + Value.to_int a.(1)))

let adversarial_space = Space.ints ~lo:0 ~hi:4 ~arity:2

let test_all_singleton_classes () =
  (* allow everything: each point is its own class — refinement can skip
     every run in the soundness check and none in the table build. *)
  let policy = Policy.allow [ 0; 1 ] in
  check_against_oracle "all-singleton" `Value policy q_sum adversarial_space;
  List.iter
    (fun jobs ->
      let m, calls = counting (Mechanism.of_program q_sum) in
      ignore (Analyze.soundness (Analyze.config ~jobs adversarial_space) policy m);
      Alcotest.(check int)
        (Printf.sprintf "singleton classes need no soundness runs (jobs=%d)" jobs)
        0 (Atomic.get calls))
    both_jobs;
  check_soundness_against_oracle "all-singleton" Soundness.default policy
    (Mechanism.of_program q_sum) adversarial_space

let test_one_giant_class () =
  (* allow nothing: the whole space is one class, mixed almost immediately
     — the refined build stops after the first split. *)
  let policy = Policy.allow_none in
  check_against_oracle "one-giant-class" `Value policy q_sum adversarial_space;
  List.iter
    (fun jobs ->
      let _, stats =
        refined_table ~view:`Value ~jobs policy q_sum adversarial_space
      in
      Alcotest.(check int)
        (Printf.sprintf "mixed giant class stops at the first split (jobs=%d)" jobs)
        2 stats.Refine.runs)
    both_jobs;
  check_soundness_against_oracle "one-giant-class" Soundness.default policy
    (Mechanism.of_program q_sum) adversarial_space

let test_filter_policy () =
  (* A non-allow policy exercises the generic hash partition (no
     structural fast path): classes by parity of the first coordinate. *)
  let policy =
    Policy.filter ~name:"parity" (fun a -> Value.int (Value.to_int a.(0) mod 2))
  in
  check_against_oracle "filter-parity" `Value policy q_sum adversarial_space;
  check_against_oracle "filter-parity-timed" `Timed policy q_sum
    adversarial_space;
  check_soundness_against_oracle "filter-parity" Soundness.default policy
    (Mechanism.of_program q_sum) adversarial_space

let test_duplicate_domain_values () =
  (* A domain with repeated values: two digit combinations carry the same
     policy image, so the index-arithmetic fast path must stand down and
     the hash partition must merge them — exactly like the brute oracle. *)
  let space =
    Space.make
      [|
        [| Value.int 0; Value.int 1; Value.int 0 |];
        [| Value.int 0; Value.int 1 |];
      |]
  in
  let policy = Policy.allow [ 0 ] in
  check_against_oracle "duplicate-domain" `Value policy q_sum space;
  check_soundness_against_oracle "duplicate-domain" Soundness.default policy
    (Mechanism.of_program q_sum) space

let test_empty_product_space () =
  (* Space.make [||] is the legal degenerate space: one empty point. *)
  let space = Space.make [||] in
  let q0 = Program.of_fun ~name:"nullary" ~arity:0 (fun _ -> Value.int 42) in
  let policy = Policy.allow_none in
  check_against_oracle "empty-product" `Value policy q0 space;
  check_soundness_against_oracle "empty-product" Soundness.default policy
    (Mechanism.of_program q0) space

(* --- random programs ---------------------------------------------------- *)

let prop_random_differential =
  qtest ~count:40 "refined = brute on random programs (tables and verdicts)"
    (Generator.arbitrary Generator.default)
    (fun prog ->
      let g = Compile.compile prog in
      let q = Interp.graph_program g in
      let space = Generator.space_for Generator.default in
      List.iter
        (fun policy ->
          List.iter
            (fun (view, vname) ->
              let msg = Printf.sprintf "%s/%s" (Policy.name policy) vname in
              let oracle = Maximal.table view policy q space in
              List.iter
                (fun jobs ->
                  let ptbl, _ = refined_table ~view ~jobs policy q space in
                  Alcotest.(check string)
                    (Printf.sprintf "%s: table jobs=%d" msg jobs)
                    (fp oracle) (fp ptbl))
                both_jobs)
            views;
          check_soundness_against_oracle
            (Policy.name policy ^ "/raw-Q") Soundness.default policy
            (Mechanism.of_program q) space)
        (Harness.policies_of_arity (Space.arity space));
      true)

(* --- cache sharing ------------------------------------------------------ *)

let test_cache_sharing_across_views () =
  let e = Paper.find "ex8" in
  let q = Paper.program e in
  let p = e.Paper.policy in
  let space = e.Paper.space in
  let cache = Cache.create () in
  let run view = refined_table ~cache ~view ~jobs:1 p q space in
  let tbl_v, rs_v = run `Value in
  Alcotest.(check int) "cold cache: misses = refined runs" rs_v.Refine.runs
    (Cache.misses cache);
  Alcotest.(check string) "cached value-view table = oracle"
    (fp (Maximal.table `Value p q space))
    (fp tbl_v);
  (* Same view again: zero new misses, identical table. *)
  let misses0 = Cache.misses cache in
  let tbl_v2, _ = run `Value in
  Alcotest.(check int) "warm cache: no new misses" misses0 (Cache.misses cache);
  Alcotest.(check string) "warm table identical" (fp tbl_v) (fp tbl_v2);
  (* The timed view shares every raw-Q run already cached: the tag excludes
     the view, so only genuinely new points can miss. *)
  let hits0 = Cache.hits cache in
  let tbl_t, rs_t = run `Timed in
  Alcotest.(check bool) "timed view hits value-view runs" true
    (Cache.hits cache > hits0);
  Alcotest.(check bool) "timed view misses only new points" true
    (Cache.misses cache - misses0 <= rs_t.Refine.runs);
  Alcotest.(check string) "cached timed-view table = oracle"
    (fp (Maximal.table `Timed p q space))
    (fp tbl_t)

(* --- the facade --------------------------------------------------------- *)

let test_analyze_brute_equals_refine () =
  let e = Paper.find "ex8" in
  let q = Paper.program e in
  let p = e.Paper.policy in
  List.iter
    (fun jobs ->
      let at algo = Analyze.config ~jobs ~algo e.Paper.space in
      let m_b, _ = Analyze.maximal (at Analyze.Brute) p q in
      let m_r, _ = Analyze.maximal (at Analyze.Refine) p q in
      Seq.iter
        (fun a ->
          Alcotest.(check string)
            (Printf.sprintf "Analyze jobs=%d on %s" jobs (Harness.show_input a))
            (show_mech_reply (Mechanism.respond m_b a))
            (show_mech_reply (Mechanism.respond m_r a)))
        (Space.enumerate e.Paper.space);
      let classes algo = Maximal.classes_of_table (fst (Analyze.table (at algo) p q)) in
      Alcotest.(check (pair int int))
        (Printf.sprintf "Analyze granted classes jobs=%d" jobs)
        (classes Analyze.Brute) (classes Analyze.Refine);
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "Analyze maximal ratio jobs=%d" jobs)
        (fst (Analyze.maximal_ratio (at Analyze.Brute) p q))
        (fst (Analyze.maximal_ratio (at Analyze.Refine) p q));
      let m = Mechanism.of_program q in
      Alcotest.(check string)
        (Printf.sprintf "Analyze soundness jobs=%d" jobs)
        (verdict_str (fst (Analyze.soundness (at Analyze.Brute) p m)))
        (verdict_str (fst (Analyze.soundness (at Analyze.Refine) p m))))
    both_jobs

let test_refine_actually_saves () =
  (* The perf claim's mechanism, pinned functionally: on the bench workload
     shape (gcd under allow{0}) most classes split early, so the refined
     pass runs a small fraction of the space. *)
  let gcd =
    Program.of_fun ~name:"gcd" ~arity:2 (fun a ->
        let rec go a b = if b = 0 then a else if a > b then go (a - b) b else go a (b - a) in
        Value.int (go (Value.to_int a.(0) + 1) (Value.to_int a.(1) + 1)))
  in
  let space = Space.ints ~lo:0 ~hi:15 ~arity:2 in
  let policy = Policy.allow [ 0 ] in
  check_against_oracle "gcd-16x16" `Value policy gcd space;
  List.iter
    (fun jobs ->
      let _, stats = refined_table ~view:`Value ~jobs policy gcd space in
      Alcotest.(check bool)
        (Printf.sprintf "refinement skips most of 16x16 (jobs=%d: ran %d of %d)"
           jobs stats.Refine.runs stats.Refine.space_size)
        true
        (stats.Refine.saved > stats.Refine.space_size / 2))
    both_jobs

let () =
  Alcotest.run "refine"
    [
      ( "differential",
        [
          Alcotest.test_case "corpus x allow(J) x views: tables, mechanisms"
            `Slow test_corpus_differential;
          Alcotest.test_case "corpus x allow(J): soundness verdicts" `Slow
            test_corpus_soundness_differential;
          prop_random_differential;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "all-singleton classes" `Quick
            test_all_singleton_classes;
          Alcotest.test_case "one giant class" `Quick test_one_giant_class;
          Alcotest.test_case "filter policy (generic partition)" `Quick
            test_filter_policy;
          Alcotest.test_case "duplicate domain values" `Quick
            test_duplicate_domain_values;
          Alcotest.test_case "empty-product space" `Quick
            test_empty_product_space;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "exact-key cache shared across views" `Quick
            test_cache_sharing_across_views;
        ] );
      ( "facade",
        [
          Alcotest.test_case "Analyze: Brute = Refine at jobs 1 and 4" `Quick
            test_analyze_brute_equals_refine;
          Alcotest.test_case "refinement saves runs on the bench shape" `Quick
            test_refine_actually_saves;
        ] );
    ]
