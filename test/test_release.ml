(* The packaged release decision: every route taken, every guarantee
   re-verified from outside. *)

open Util
module Release = Secpol.Release
module Paper = Secpol_corpus.Paper_programs
module Generator = Secpol_corpus.Generator
module Interp = Secpol_flowgraph.Interp

let plan (e : Paper.entry) =
  Release.plan ~policy:e.Paper.policy ~space:e.Paper.space e.Paper.prog

let check_route msg expected r =
  Alcotest.(check string) msg expected (Release.route_name r.Release.route)

let test_ship_bare_when_certified () =
  let r = plan Paper.branch_allowed in
  check_route "certified program ships bare" "ship-bare" r;
  Alcotest.(check bool) "certified flag" true r.Release.certified;
  Alcotest.(check (float 1e-9)) "serves everything" 1.0 r.Release.completeness

let test_guarded_route_for_ex9 () =
  let r = plan Paper.ex9 in
  check_route "ex9 takes the per-halt static route" "guarded" r;
  Alcotest.(check (float 1e-9)) "matches maximal" r.Release.maximal
    r.Release.completeness;
  Alcotest.(check (float 1e-9)) "a quarter served" 0.25 r.Release.completeness

let test_monitored_route_for_scoped_trap () =
  (* Static serves 0% of the achievable 25%, search finds nothing either:
     the planner falls through to monitoring (which also serves 0 here, but
     soundly and without lying). *)
  let r = plan Paper.scoped_trap in
  check_route "falls back to monitoring" "monitored" r;
  Alcotest.(check (float 1e-9)) "monitor serves nothing here" 0.0
    r.Release.completeness;
  Alcotest.(check (float 1e-9)) "while maximal shows headroom" 0.25
    r.Release.maximal

let test_refuse_when_nothing_sound () =
  let r = plan Paper.direct_flow in
  check_route "direct flow is refused" "refuse" r;
  Alcotest.(check (float 1e-9)) "maximal is empty" 0.0 r.Release.maximal

let test_monitored_beats_plain_surveillance () =
  (* constant-branch: plain surveillance 0%, the searched monitor 100%. *)
  let r = plan Paper.constant_branch in
  check_route "monitored" "monitored" r;
  Alcotest.(check (float 1e-9)) "search closed the gap" 1.0 r.Release.completeness

let test_notes_present () =
  let r = plan Paper.ex9 in
  Alcotest.(check bool) "decision trail recorded" true (r.Release.notes <> [])

let test_filter_policy_rejected () =
  let e = Paper.ex9 in
  match
    Release.plan
      ~policy:(Policy.filter ~name:"f" (fun _ -> Value.unit))
      ~space:e.Paper.space e.Paper.prog
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "filter policies must be rejected"

(* A generated program (QCheck seed 952065165, the 17th drawn) on which
   the transform search used to exhaust memory: unrolling its nested loops
   and then collapsing the branch grew the symbolic effects geometrically.
   The node budget refuses those variants, so planning is quick. *)
let test_transform_budget () =
  let prog =
    Secpol_lang.Source.parse_exn
      {|program nested_unroll(x0, x1)
  if 2 = x0 then
    r2 := (x1 & 3);
    while r2 > 0 do
      r3 := (x0 & 3);
      while r3 > 0 do x0 := (2 - r0); r3 := (r3 - 1) done;
      r2 := (r2 - 1)
    done
  else y := r0; y := (x1 | (r0 * r1)) end|}
  in
  let space = Generator.space_for Generator.default in
  let t0 = Sys.time () in
  let routes =
    List.map
      (fun policy -> Release.route_name (Release.plan ~policy ~space prog).Release.route)
      [ Policy.allow_none; Policy.allow [ 0 ]; Policy.allow [ 1 ] ]
  in
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check (list string)) "routes" [ "refuse"; "guarded"; "monitored" ] routes;
  if elapsed >= 2.0 then Alcotest.failf "planning took %.2f s of CPU (limit 2 s)" elapsed

(* Whatever route the planner picks on random programs, the result is a
   sound protection mechanism bounded by the maximal yardstick. *)
let prop_plan_always_sound =
  let params = Generator.default in
  qtest ~count:150 "release plans are sound protection mechanisms"
    (Generator.arbitrary params)
    (fun prog ->
      let space = Generator.space_for params in
      List.for_all
        (fun policy ->
          let r = Release.plan ~policy ~space prog in
          Soundness.is_sound policy r.Release.mechanism space
          && Mechanism.check_protects r.Release.mechanism
               (Interp.ast_program prog) space
             = Ok ()
          && r.Release.completeness <= r.Release.maximal +. 1e-9)
        [ Policy.allow_none; Policy.allow [ 0 ]; Policy.allow [ 1 ] ])

let () =
  Alcotest.run "secpol-release"
    [
      ( "routes",
        [
          Alcotest.test_case "ship-bare" `Quick test_ship_bare_when_certified;
          Alcotest.test_case "guarded" `Quick test_guarded_route_for_ex9;
          Alcotest.test_case "monitored-fallback" `Quick test_monitored_route_for_scoped_trap;
          Alcotest.test_case "refuse" `Quick test_refuse_when_nothing_sound;
          Alcotest.test_case "search-wins" `Quick test_monitored_beats_plain_surveillance;
          Alcotest.test_case "notes" `Quick test_notes_present;
          Alcotest.test_case "filter-rejected" `Quick test_filter_policy_rejected;
          Alcotest.test_case "transform-budget" `Quick test_transform_budget;
        ] );
      ("property", [ prop_plan_always_sound ]);
    ]
