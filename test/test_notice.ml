(* The violation-notice namespace F (Core.Notice): the enumeration is
   tight — members distinct, round-tripping and Λ-prefixed; [in_f] is
   exactly the prefix check, strictly wider than [mem]; the layer
   constants (Dynamic's fuel notice, the server's overload notice) are
   the canonical members, not private spellings — and it is exhaustive:
   every denial the dynamic stack emits over the whole corpus, every
   policy, every mode, fuel-starved or not, is a canonical member, and
   chatty notices stay inside F. *)

open Util
module Notice = Secpol_core.Notice
module Dynamic = Secpol_taint.Dynamic
module Ast = Secpol_flowgraph.Ast
module Paper = Secpol_corpus.Paper_programs
module Harness = Secpol_fault.Harness
module Wire = Secpol_server.Wire

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* --- the enumeration ------------------------------------------------------ *)

let test_members_distinct_and_prefixed () =
  let ms = Notice.members in
  Alcotest.(check int)
    "members lists every constructor" (List.length Notice.all)
    (List.length ms);
  Alcotest.(check int)
    "members are pairwise distinct" (List.length ms)
    (List.length (List.sort_uniq compare ms));
  List.iter
    (fun m ->
      if not (starts_with Notice.prefix m) then
        Alcotest.failf "%S does not start with the Λ prefix" m)
    ms

let test_round_trip () =
  List.iter
    (fun n ->
      match Notice.of_string (Notice.to_string n) with
      | Some n' when n' = n -> ()
      | Some _ -> Alcotest.failf "%s round-trips wrong" (Notice.to_string n)
      | None -> Alcotest.failf "of_string misses %s" (Notice.to_string n))
    Notice.all;
  List.iter
    (fun s ->
      if Notice.of_string s <> None then
        Alcotest.failf "of_string accepts non-member %S" s)
    [ ""; "L"; "lambda"; "\xce\x9b/"; "\xce\x9b/explicit"; "\xce\x9b: x tainted" ]

let test_in_f_is_the_prefix_check () =
  (* mem ⊂ in_f: every canonical notice is in F ... *)
  List.iter
    (fun m ->
      if not (Notice.in_f m) then Alcotest.failf "member %S not in F" m;
      if not (Notice.mem m) then Alcotest.failf "mem misses member %S" m)
    Notice.members;
  (* ... and F also holds the chatty and provenance spellings mem rejects. *)
  List.iter
    (fun s ->
      if not (Notice.in_f s) then Alcotest.failf "%S should be in F" s;
      if Notice.mem s then Alcotest.failf "%S should not be canonical" s)
    [
      "\xce\x9b: surveillance variable x";
      "\xce\x9b/explicit";
      "\xce\x9b/implicit";
      "\xce\x9b/timed";
    ];
  List.iter
    (fun s -> if Notice.in_f s then Alcotest.failf "%S must not be in F" s)
    [ ""; "ok"; "granted 3"; "L/overload"; "\xce"; "42" ]

let test_describe () =
  let ds = List.map Notice.describe Notice.all in
  List.iter
    (fun d -> if d = "" then Alcotest.fail "describe returned an empty line")
    ds;
  Alcotest.(check int)
    "descriptions are distinct" (List.length ds)
    (List.length (List.sort_uniq compare ds))

(* --- the layer constants are the canonical members ------------------------ *)

let test_layer_constants () =
  Alcotest.(check string) "Dynamic.fuel_notice is Notice.Fuel"
    (Notice.to_string Notice.Fuel)
    Dynamic.fuel_notice;
  Alcotest.(check string) "Wire.overload_notice is Notice.Overload"
    (Notice.to_string Notice.Overload)
    Wire.overload_notice;
  Alcotest.(check string) "the condemned notice is the bare prefix"
    Notice.prefix
    (Notice.to_string Notice.Condemned)

(* --- exhaustiveness over the corpus --------------------------------------- *)

(* Every denial the dynamic stack emits — all corpus entries, all allow(J)
   policies, all four modes, normal and fuel-starved — must be a canonical
   member of F. Hung/Failed never escape [Dynamic.run]. *)
let test_corpus_exhaustive () =
  let modes =
    [ Dynamic.High_water; Dynamic.Surveillance; Dynamic.Scoped; Dynamic.Timed ]
  in
  let runs = ref 0 and denials = ref 0 and fuel_denials = ref 0 in
  List.iter
    (fun (e : Paper.entry) ->
      let g = Paper.graph e in
      let arity = e.Paper.prog.Ast.arity in
      List.iter
        (fun policy ->
          List.iter
            (fun mode ->
              List.iter
                (fun fuel ->
                  let m =
                    Dynamic.mechanism (Dynamic.config ?fuel ~mode policy) g
                  in
                  Seq.iter
                    (fun a ->
                      incr runs;
                      match (Mechanism.respond m a).Mechanism.response with
                      | Mechanism.Granted _ -> ()
                      | Mechanism.Denied n ->
                          incr denials;
                          if n = Dynamic.fuel_notice then incr fuel_denials;
                          if not (Notice.mem n) then
                            Alcotest.failf
                              "%s / %s / %s: non-canonical notice %S"
                              e.Paper.name (Policy.name policy)
                              (Dynamic.mode_name mode) n
                      | Mechanism.Hung ->
                          Alcotest.failf "%s: hung" e.Paper.name
                      | Mechanism.Failed msg ->
                          Alcotest.failf "%s: failed: %s" e.Paper.name msg)
                    (Space.enumerate e.Paper.space))
                [ None; Some 4 ])
            modes)
        (Harness.policies_of_arity arity))
    Paper.all;
  if !denials = 0 then Alcotest.fail "inert sweep: no denial was emitted";
  if !fuel_denials = 0 then
    Alcotest.fail "inert sweep: fuel starvation never fired";
  if !runs < 1000 then Alcotest.failf "inert sweep: only %d runs" !runs

(* Chatty notices carry diagnostic text but must stay inside F (the Λ
   prefix) — and at least one must leave the canonical enumeration, or
   the chatty path is dead. *)
let test_chatty_stays_in_f () =
  let chatty = ref 0 in
  List.iter
    (fun (e : Paper.entry) ->
      let g = Paper.graph e in
      let m =
        Dynamic.mechanism
          (Dynamic.config ~chatty_notices:true ~mode:Dynamic.Surveillance
             Policy.allow_none)
          g
      in
      Seq.iter
        (fun a ->
          match (Mechanism.respond m a).Mechanism.response with
          | Mechanism.Denied n ->
              if not (Notice.in_f n) then
                Alcotest.failf "%s: chatty notice %S escaped F" e.Paper.name n;
              if not (Notice.mem n) then incr chatty
          | _ -> ())
        (Space.enumerate e.Paper.space))
    Paper.all;
  if !chatty = 0 then Alcotest.fail "chatty mode never produced chatty text"

let () =
  Alcotest.run "notice"
    [
      ( "namespace",
        [
          Alcotest.test_case "members" `Quick
            test_members_distinct_and_prefixed;
          Alcotest.test_case "round-trip" `Quick test_round_trip;
          Alcotest.test_case "in-f" `Quick test_in_f_is_the_prefix_check;
          Alcotest.test_case "describe" `Quick test_describe;
          Alcotest.test_case "layer-constants" `Quick test_layer_constants;
        ] );
      ( "exhaustiveness",
        [
          Alcotest.test_case "corpus" `Quick test_corpus_exhaustive;
          Alcotest.test_case "chatty" `Quick test_chatty_stays_in_f;
        ] );
    ]
