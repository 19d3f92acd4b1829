(* The Secpol.Run facade: one config record in front of the interpreter,
   the dynamic monitor, the guard and the durable runner. Each single-layer
   configuration must be bit-identical to calling the underlying module
   directly, and batch must be input-ordered and jobs-independent. *)

open Util
module Run = Secpol.Run
module Pool = Secpol_engine.Pool
module Dynamic = Secpol_taint.Dynamic
module Interp = Secpol_flowgraph.Interp
module Guard = Secpol_fault.Guard
module Media = Secpol_journal.Media
module Runner = Secpol_journal.Runner
module Paper = Secpol_corpus.Paper_programs

let every_input space f = Seq.iter f (Space.enumerate space)

let check_replies msg a want got =
  Alcotest.(check string)
    (Printf.sprintf "%s on %s" msg (Secpol_fault.Harness.show_input a))
    (show_mech_reply want) (show_mech_reply got)

(* --- single layers ----------------------------------------------------- *)

let test_monitor_parity () =
  let e = Paper.find "ex7" in
  let g = Paper.graph e in
  let p = e.Paper.policy in
  let cfg = Run.config ~policy:p () in
  let direct =
    Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance p) g
  in
  every_input e.Paper.space (fun a ->
      check_replies "policy-only config = Dynamic" a
        (Mechanism.respond direct a) (Run.run cfg g a))

let test_interp_parity () =
  let e = Paper.find "ex7" in
  let g = Paper.graph e in
  let cfg = Run.config () in
  let plain = Interp.graph_mechanism g in
  every_input e.Paper.space (fun a ->
      check_replies "policy-less config = plain interpreter" a
        (Mechanism.respond plain a) (Run.run cfg g a))

let test_mode_and_guard_layer () =
  let e = Paper.find "ex8" in
  let g = Paper.graph e in
  let p = e.Paper.policy in
  List.iter
    (fun mode ->
      let cfg = Run.config ~policy:p ~mode ~guard:Guard.default () in
      let direct =
        Guard.protect ~config:Guard.default
          (Dynamic.mechanism (Dynamic.config ~mode p) g)
      in
      every_input e.Paper.space (fun a ->
          check_replies
            (Printf.sprintf "guarded %s config = Guard.protect"
               (Dynamic.mode_name mode))
            a
            (Mechanism.respond direct a) (Run.run cfg g a)))
    Dynamic.all_modes

let test_journal_transparent () =
  let e = Paper.find "ex7" in
  let g = Paper.graph e in
  let p = e.Paper.policy in
  let plain = Run.config ~policy:p () in
  let journaled =
    Run.config ~policy:p
      ~journal:(Run.journal_memory ~program_ref:e.Paper.name ())
      ()
  in
  every_input e.Paper.space (fun a ->
      check_replies "journaling does not change the reply" a
        (Run.run plain g a) (Run.run journaled g a))

let test_journal_needs_policy () =
  let e = Paper.find "ex7" in
  let g = Paper.graph e in
  let cfg =
    Run.config ~journal:(Run.journal_memory ~program_ref:e.Paper.name ()) ()
  in
  Alcotest.check_raises "journal without policy refused"
    (Invalid_argument "Run: a journaled run needs a policy") (fun () ->
      ignore (Run.run cfg g (ints [ 0; 0 ])))

(* --- batch -------------------------------------------------------------- *)

let test_batch_order_and_jobs () =
  let e = Paper.find "ex7" in
  let g = Paper.graph e in
  let p = e.Paper.policy in
  let inputs = List.of_seq (Space.enumerate e.Paper.space) in
  let sequential =
    List.map (fun a -> show_mech_reply (Run.run (Run.config ~policy:p ()) g a)) inputs
  in
  List.iter
    (fun jobs ->
      let replies, stats = Run.batch (Run.config ~policy:p ~jobs ()) g inputs in
      Alcotest.(check (list string))
        (Printf.sprintf "batch jobs=%d = sequential runs, in input order" jobs)
        sequential
        (List.map show_mech_reply replies);
      Alcotest.(check int) "one task per input" (List.length inputs)
        stats.Pool.task_count)
    [ 1; 4 ]

let test_batch_refuses_shared_dir_journal () =
  let e = Paper.find "ex7" in
  let g = Paper.graph e in
  let cfg =
    Run.config ~policy:e.Paper.policy
      ~journal:(Run.journal_dir ~program_ref:e.Paper.name "/nonexistent")
      ~jobs:2 ()
  in
  Alcotest.check_raises "parallel batch on one journal dir refused"
    (Invalid_argument "Run.batch: parallel runs cannot share a journal directory")
    (fun () -> ignore (Run.batch cfg g [ ints [ 0; 0 ] ]))

(* --- resume -------------------------------------------------------------- *)

let resolve (h : Runner.header) =
  match Paper.find h.Runner.program_ref with
  | e -> Ok (Paper.graph e)
  | exception Not_found -> Error ("unknown program " ^ h.Runner.program_ref)

let test_resume_roundtrip () =
  with_scratch_dir (fun dir ->
      let e = Paper.find "ex7" in
      let g = Paper.graph e in
      let p = e.Paper.policy in
      let a = ints [ 3; 0 ] in
      let cfg =
        Run.config ~policy:p
          ~journal:(Run.journal_dir ~program_ref:e.Paper.name dir)
          ()
      in
      let original = Run.run cfg g a in
      let media = Media.dir dir in
      let result = Run.resume (Run.config ()) ~resolve ~media in
      Media.close media;
      match result with
      | Error f -> Alcotest.failf "resume failed: %s" (Runner.failure_message f)
      | Ok res ->
          Alcotest.(check bool) "verdict was already journaled" true
            res.Runner.was_complete;
          check_replies "resumed reply = original reply" a original
            res.Runner.reply;
          check_replies "reply_of_resume unwraps the success" a original
            (Run.reply_of_resume result))

let () =
  Alcotest.run "run-facade"
    [
      ( "layers",
        [
          Alcotest.test_case "monitor parity" `Quick test_monitor_parity;
          Alcotest.test_case "interpreter parity" `Quick test_interp_parity;
          Alcotest.test_case "guard layering parity" `Quick
            test_mode_and_guard_layer;
          Alcotest.test_case "journal transparency" `Quick
            test_journal_transparent;
          Alcotest.test_case "journal needs a policy" `Quick
            test_journal_needs_policy;
        ] );
      ( "batch",
        [
          Alcotest.test_case "input order, jobs-independent" `Quick
            test_batch_order_and_jobs;
          Alcotest.test_case "shared dir journal refused" `Quick
            test_batch_refuses_shared_dir_journal;
        ] );
      ( "resume",
        [ Alcotest.test_case "roundtrip via the facade" `Quick test_resume_roundtrip ]
      );
    ]
