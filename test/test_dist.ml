(* Distributed enforcement: the sharding, the wire layer, the seeded
   network, and the coordinator's fail-secure merge. The invariants under
   test mirror the module docs — slices partition the disallowed set, the
   codec is a total inverse of the encoder, the merge is idempotent under
   duplicated/reordered/delayed delivery and bit-identical to the guarded
   single enforcer when nothing is disturbed, and every distributed
   failure lands in F (Λ/partition at worst), never in a grant. *)

open Util
module Graph = Secpol_flowgraph.Graph
module Dynamic = Secpol_taint.Dynamic
module Paper = Secpol_corpus.Paper_programs
module Guard = Secpol_fault.Guard
module Codec = Secpol_journal.Codec
module Frame = Secpol_journal.Frame
module Media = Secpol_journal.Media
module Msg = Secpol_dist.Msg
module Net = Secpol_dist.Net
module Plan = Secpol_dist.Plan
module Shard = Secpol_dist.Shard
module Coordinator = Secpol_dist.Coordinator
module Run = Secpol.Run

let reply_testable =
  Alcotest.testable
    (fun ppf r -> Format.pp_print_string ppf (show_mech_reply r))
    ( = )

(* --- slices -------------------------------------------------------------- *)

(* The watch sets partition the disallowed coordinates: pairwise disjoint,
   union exactly D, and each shard's sub-policy allows everything it does
   not watch. *)
let prop_slices_partition =
  qtest ~count:500 "slices-partition-the-disallowed-set"
    QCheck.(triple (int_range 1 8) (int_range 1 8) (int_range 0 255))
    (fun (shards, arity, mask_seed) ->
      let full = Iset.full arity in
      let allowed =
        Iset.of_list
          (List.filter
             (fun i -> (mask_seed lsr i) land 1 = 1)
             (List.init arity Fun.id))
      in
      let disallowed = Iset.diff full allowed in
      let slices = Shard.slices ~shards ~arity ~allowed in
      if Array.length slices <> shards then
        QCheck.Test.fail_reportf "expected %d slices" shards;
      let union = ref Iset.empty in
      Array.iter
        (fun (sl : Shard.slice) ->
          if not (Iset.is_empty (Iset.inter !union sl.Shard.watch_set)) then
            QCheck.Test.fail_reportf "watch sets overlap at shard %d"
              sl.Shard.shard_id;
          if
            not
              (Iset.equal sl.Shard.sub_allowed
                 (Iset.diff full sl.Shard.watch_set))
          then
            QCheck.Test.fail_reportf "shard %d sub_allowed is not full \\ D_s"
              sl.Shard.shard_id;
          union := Iset.union !union sl.Shard.watch_set)
        slices;
      Iset.equal !union disallowed
      || QCheck.Test.fail_reportf "union %s <> disallowed %s"
           (Iset.to_string !union)
           (Iset.to_string disallowed))

(* --- the wire layer ------------------------------------------------------ *)

let gen_report =
  QCheck.Gen.(
    let* shards = int_range 1 8 in
    let* shard_id = int_range 0 (shards - 1) in
    let* nonce = small_nat in
    let* attempt = int_range 1 4 in
    let* watch_mask = small_nat in
    let* watched_boxes = small_nat in
    let* skipped_boxes = small_nat in
    let* steps = small_nat in
    let* response =
      oneof
        [
          map (fun v -> Mechanism.Granted (Value.int v)) small_signed_int;
          map (fun n -> Mechanism.Denied n)
            (oneofl [ "\xce\x9b"; "\xce\x9b/fuel"; "notice \"x\"\n" ]);
          return Mechanism.Hung;
          map (fun m -> Mechanism.Failed m) small_string;
        ]
    in
    return
      {
        Msg.shard_id;
        shards;
        nonce;
        attempt;
        watch_mask;
        watched_boxes;
        skipped_boxes;
        reply = { Mechanism.response; steps };
      })

let report_arb =
  QCheck.make
    ~print:(fun (r : Msg.report) ->
      Printf.sprintf "shard %d/%d nonce %d attempt %d: %s" r.Msg.shard_id
        r.Msg.shards r.Msg.nonce r.Msg.attempt (show_mech_reply r.Msg.reply))
    gen_report

let prop_msg_roundtrip =
  qtest ~count:500 "decode-of-encode-is-identity" report_arb (fun r ->
      match Msg.decode (Msg.encode r) with
      | Ok r' ->
          r = r'
          || QCheck.Test.fail_reportf "roundtrip changed the report: %s vs %s"
               (show_mech_reply r.Msg.reply)
               (show_mech_reply r'.Msg.reply)
      | Error e ->
          QCheck.Test.fail_reportf "exact encoding rejected: %s"
            (Codec.error_message e))

(* Every truncation and every single-bit flip of an encoding is rejected
   with a typed error — never an exception, never a misread report. *)
let prop_msg_damage_rejected =
  qtest ~count:300 "torn-or-flipped-encodings-rejected"
    QCheck.(pair report_arb (int_range 0 1_000_000))
    (fun (r, salt) ->
      let bytes = Msg.encode r in
      let len = String.length bytes in
      let cut = salt mod len in
      (match Msg.decode (String.sub bytes 0 cut) with
      | Error _ -> ()
      | Ok _ -> QCheck.Test.fail_reportf "truncation at %d decoded" cut);
      (match Msg.decode (bytes ^ "x") with
      | Error _ -> ()
      | Ok _ -> QCheck.Test.fail_report "trailing byte decoded");
      let pos = salt mod len and bit = salt mod 8 in
      let flipped = Bytes.of_string bytes in
      Bytes.set flipped pos
        (Char.chr (Char.code (Bytes.get flipped pos) lxor (1 lsl bit)));
      match Msg.decode (Bytes.to_string flipped) with
      | Error _ -> true
      | Ok _ ->
          QCheck.Test.fail_reportf "bit %d of byte %d flipped yet decoded" bit
            pos)

let test_msg_foreign_version_rejected () =
  let r =
    {
      Msg.shard_id = 0;
      shards = 2;
      nonce = 7;
      attempt = 1;
      watch_mask = 1;
      watched_boxes = 3;
      skipped_boxes = 0;
      reply = { Mechanism.response = Mechanism.Denied "\xce\x9b"; steps = 4 };
    }
  in
  let payload =
    match Frame.one (Msg.encode r) with
    | Ok p -> p
    | Error e -> Alcotest.failf "frame unreadable: %s" (Codec.error_message e)
  in
  (* The payload opens with the codec's version stamp; splice in a foreign
     one and re-frame. The CRC is fresh, so only the version check can
     reject it — and it must. *)
  let version_prefix =
    let w = Codec.W.create () in
    Codec.write_version w;
    Codec.W.contents w
  in
  let vlen = String.length version_prefix in
  Alcotest.(check string)
    "payload opens with the version stamp" version_prefix
    (String.sub payload 0 vlen);
  let foreign =
    let w = Codec.W.create () in
    Codec.write_version ~version:(Codec.format_version + 1) w;
    Codec.W.contents w ^ String.sub payload vlen (String.length payload - vlen)
  in
  match Msg.decode (Frame.frame foreign) with
  | Error (Codec.Bad_version _) -> ()
  | Error e ->
      Alcotest.failf "expected Bad_version, got %s" (Codec.error_message e)
  | Ok _ -> Alcotest.fail "foreign-version report decoded"

let test_msg_content_equal_ignores_attempt () =
  let r =
    {
      Msg.shard_id = 1;
      shards = 3;
      nonce = 9;
      attempt = 1;
      watch_mask = 2;
      watched_boxes = 5;
      skipped_boxes = 1;
      reply = { Mechanism.response = Mechanism.Granted (Value.int 3); steps = 6 };
    }
  in
  Alcotest.(check bool)
    "retransmission with a bumped attempt is the same report" true
    (Msg.content_equal r { r with Msg.attempt = 3 });
  Alcotest.(check bool)
    "a different verdict is a disagreement" false
    (Msg.content_equal r
       {
         r with
         Msg.reply =
           { Mechanism.response = Mechanism.Granted (Value.int 4); steps = 6 };
       })

(* --- fixtures for merge tests ------------------------------------------- *)

(* `forgetting` under its allow policy: the space holds both condemning
   (Λ) and granting inputs — found by scanning, not hard-coded. *)
let entry = Paper.forgetting

let policy =
  match Policy.allowed_indices entry.Paper.policy with
  | Some _ -> entry.Paper.policy
  | None -> Alcotest.fail "the entry's policy must be allow(J)"

let graph = Paper.graph entry

let clean_mech =
  Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) graph

(* The distributed baseline: the guarded single enforcer, exactly what the
   coordinator promises to reconstruct bit-for-bit when undisturbed. *)
let guarded_reply a =
  Guard.reply_of_outcome (Guard.run ~config:Guard.default clean_mech a)

let find_input pred =
  match
    Seq.find
      (fun a -> pred (Mechanism.respond clean_mech a).Mechanism.response)
      (Space.enumerate entry.Paper.space)
  with
  | Some a -> a
  | None -> Alcotest.fail "the entry space lacks the wanted verdict"

let denying_input =
  find_input (function
    | Mechanism.Denied n -> n = Dynamic.notice
    | _ -> false)

let granting_input = find_input (function Mechanism.Granted _ -> true | _ -> false)

let make_shards ?journal n =
  let slices =
    Shard.slices ~shards:n ~arity:graph.Graph.arity
      ~allowed:(Option.get (Policy.allowed_indices policy))
  in
  Array.map
    (fun sl ->
      Shard.create ?journal ~mode:Dynamic.Surveillance sl graph)
    slices

let enforce ?config ?net shards a =
  Coordinator.enforce ?config ?net ~nonce:(Coordinator.fresh_nonce ()) shards a

(* --- the merge ----------------------------------------------------------- *)

let test_fault_free_parity () =
  List.iter
    (fun a ->
      let clean = guarded_reply a in
      List.iter
        (fun n ->
          let r, stats = enforce (make_shards n) a in
          Alcotest.check reply_testable
            (Printf.sprintf "%d shards, perfect network" n)
            clean r;
          Alcotest.(check bool) "complete" true stats.Coordinator.complete;
          let rj, _ =
            enforce
              (make_shards ~journal:(fun () -> Media.memory ()) n)
              a
          in
          Alcotest.check reply_testable
            (Printf.sprintf "%d journaled shards" n)
            clean rj)
        [ 1; 2; 3; 5; 8 ])
    [ denying_input; granting_input ]

(* Duplicated, reordered and delayed deliveries never change the verdict:
   the merge is idempotent over content, and the default deadline covers
   the worst delay. *)
let prop_merge_idempotent_under_disorder =
  qtest ~count:100 "duplicate-reorder-delay-keep-the-reply"
    QCheck.(pair (int_range 0 1_000_000) (int_range 2 5))
    (fun (seed, n) ->
      List.iter
        (fun a ->
          let clean = guarded_reply a in
          List.iter
            (fun kinds ->
              let net = Net.create ~seed ~rate:100 ~kinds () in
              let r, _ = enforce ~net (make_shards n) a in
              if r <> clean then
                QCheck.Test.fail_reportf
                  "disordered delivery changed the reply: %s vs %s"
                  (show_mech_reply r) (show_mech_reply clean))
            [
              [ Net.Duplicate ];
              [ Net.Reorder ];
              [ Net.Delay ];
              [ Net.Duplicate; Net.Reorder; Net.Delay ];
            ])
        [ denying_input; granting_input ];
      true)

let test_total_loss_is_partition () =
  let net = Net.create ~seed:11 ~rate:100 ~kinds:[ Net.Drop ] () in
  let r, stats = enforce ~net (make_shards 3) granting_input in
  (match r.Mechanism.response with
  | Mechanism.Denied n when n = Coordinator.partition_notice -> ()
  | _ -> Alcotest.failf "expected Λ/partition, got %s" (show_mech_reply r));
  Alcotest.(check bool) "incomplete" false stats.Coordinator.complete;
  Alcotest.(check bool) "retransmissions were attempted" true
    (stats.Coordinator.retransmits > 0);
  Alcotest.(check int)
    "backoff charged into the reply" stats.Coordinator.backoff_steps
    r.Mechanism.steps

let test_killed_shard_grants_become_partition () =
  let shards = make_shards 3 in
  Shard.kill shards.(1);
  let r, stats = enforce shards granting_input in
  (match r.Mechanism.response with
  | Mechanism.Denied n when n = Coordinator.partition_notice -> ()
  | _ ->
      Alcotest.failf "a grant must not survive a lost shard: %s"
        (show_mech_reply r));
  Alcotest.(check int) "one shard lost" 1 stats.Coordinator.lost

let test_killed_shard_never_grants_and_can_deny () =
  let clean = guarded_reply denying_input in
  let delivered = ref 0 in
  for victim = 0 to 2 do
    let shards = make_shards 3 in
    Shard.kill shards.(victim);
    let r, stats = enforce shards denying_input in
    (match r.Mechanism.response with
    | Mechanism.Granted _ ->
        Alcotest.failf "kill of shard %d produced a grant" victim
    | Mechanism.Denied n ->
        if n = Dynamic.notice || n = Dynamic.fuel_notice then begin
          (* A surviving monitor denial: valid whatever the dead shard
             would have said, delivered with the backoff surcharge. *)
          incr delivered;
          if r.Mechanism.response = clean.Mechanism.response then
            Alcotest.(check int) "clean denial plus backoff"
              (clean.Mechanism.steps + stats.Coordinator.backoff_steps)
              r.Mechanism.steps
        end
        else if n <> Coordinator.partition_notice then
          Alcotest.failf "unexpected notice %S" n
    | _ -> Alcotest.failf "non-F reply %s" (show_mech_reply r))
  done;
  (* The denial is owned by one shard; killing either other shard must
     still deliver a monitor denial. *)
  Alcotest.(check bool)
    "surviving monitor denials are delivered" true (!delivered >= 2)

let test_journaled_kill_recovers_via_retransmit () =
  List.iter
    (fun a ->
      let clean = guarded_reply a in
      let shards = make_shards ~journal:(fun () -> Media.memory ()) 3 in
      Shard.arm_kill shards.(0) 1;
      let r, stats = enforce shards a in
      Alcotest.(check bool) "a retransmission was needed" true
        (stats.Coordinator.retransmits > 0);
      Alcotest.(check bool) "the journal answered it" true
        (Shard.resumes shards.(0) > 0);
      Alcotest.(check bool) "merge completed" true stats.Coordinator.complete;
      Alcotest.(check bool) "verdict is the clean verdict" true
        (r.Mechanism.response = clean.Mechanism.response);
      Alcotest.(check int) "steps are clean plus backoff"
        (clean.Mechanism.steps + stats.Coordinator.backoff_steps)
        r.Mechanism.steps)
    [ denying_input; granting_input ]

let test_foreign_nonce_and_garbage_ignored () =
  let shards = make_shards 3 in
  let net = Net.create () in
  let nonce = Coordinator.fresh_nonce () in
  let stray =
    {
      Msg.shard_id = 0;
      shards = 3;
      nonce = nonce + 1;
      attempt = 1;
      watch_mask = Shard.watch_mask shards.(0);
      watched_boxes = 0;
      skipped_boxes = 0;
      reply = { Mechanism.response = Mechanism.Granted (Value.int 9); steps = 1 };
    }
  in
  Net.send net (Msg.encode stray);
  Net.send net "not a frame at all";
  let clean = guarded_reply denying_input in
  let r, stats = Coordinator.enforce ~net ~nonce shards denying_input in
  Alcotest.check reply_testable "stray traffic never changes the verdict"
    clean r;
  Alcotest.(check bool) "foreign nonce counted" true
    (stats.Coordinator.foreign >= 1);
  Alcotest.(check bool) "garbage counted as rejected" true
    (stats.Coordinator.rejected >= 1)

let test_zero_deadline_times_out_to_partition () =
  let shards = make_shards 2 in
  let config =
    { Coordinator.default with Coordinator.deadline_rounds = 0; retries = 0 }
  in
  let r, _ = enforce ~config shards granting_input in
  match r.Mechanism.response with
  | Mechanism.Denied n when n = Coordinator.partition_notice -> ()
  | _ -> Alcotest.failf "expected a timeout partition, got %s" (show_mech_reply r)

(* --- fault plans --------------------------------------------------------- *)

let test_plans_deterministic_and_described () =
  for seed = 0 to 24 do
    let p1 = Plan.generate ~shards:3 ~seed ()
    and p2 = Plan.generate ~shards:3 ~seed () in
    if Plan.describe p1 <> Plan.describe p2 then
      Alcotest.failf "plan %d not deterministic" seed
  done;
  let ff = Plan.fault_free ~shards:4 in
  Alcotest.(check bool) "fault-free plan says so" true (Plan.is_fault_free ff);
  Alcotest.(check int) "no kills" 0 (Plan.kills ff);
  Alcotest.(check int) "no faulty monitors" 0 (Plan.monitor_faults ff)

(* --- the Run facade ------------------------------------------------------ *)

let test_run_facade_parity_and_refusals () =
  List.iter
    (fun a ->
      let clean = guarded_reply a in
      List.iter
        (fun shards ->
          List.iter
            (fun jobs ->
              let cfg = Run.config ~policy ~shards ~jobs () in
              Alcotest.check reply_testable
                (Printf.sprintf "Run with %d shards, %d jobs" shards jobs)
                clean (Run.run cfg graph a))
            [ 1; 4 ])
        [ 2; 3; 5 ])
    [ denying_input; granting_input ];
  let refused msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  refused "no policy" (fun () ->
      Run.run (Run.config ~shards:2 ()) graph denying_input);
  refused "residual conflicts" (fun () ->
      Run.run (Run.config ~policy ~shards:2 ~residual:true ()) graph
        denying_input);
  refused "zero shards" (fun () ->
      Run.run (Run.config ~policy ~shards:0 ()) graph denying_input);
  let killed =
    { (Run.journal_memory ~program_ref:entry.Paper.name ()) with Run.kill_at = Some 1 }
  in
  refused "a kill beside a guard" (fun () ->
      Run.run (Run.config ~policy ~guard:Guard.default ~journal:killed ()) graph
        denying_input);
  refused "a kill beside shards" (fun () ->
      Run.run (Run.config ~policy ~shards:2 ~journal:killed ()) graph
        denying_input)

(* Every medium a journaled shard opens is closed once its run is merged:
   50 sharded runs into a journal directory leave no file open. *)
let test_run_facade_closes_shard_media () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  if Sys.file_exists "/proc/self/fd" then
    with_scratch_dir (fun dir ->
        let cfg =
          Run.config ~policy ~shards:2
            ~journal:(Run.journal_dir ~program_ref:entry.Paper.name dir)
            ()
        in
        ignore (Run.batch cfg graph [ denying_input ]);
        let before = open_fds () in
        let replies, _ =
          Run.batch cfg graph
            (List.init 50 (fun i ->
                 if i mod 2 = 0 then denying_input else granting_input))
        in
        Alcotest.(check int) "50 runs answered" 50 (List.length replies);
        Alcotest.(check int) "no shard journal left open" before (open_fds ()))

let test_run_facade_metrics () =
  let m = Secpol_trace.Metrics.create () in
  let cfg = Run.config ~policy ~shards:3 ~metrics:m () in
  ignore (Run.run cfg graph denying_input);
  Alcotest.(check int) "one distributed run counted" 1
    (Secpol_trace.Metrics.counter_value m "run/dist/runs")

(* --- lifecycle events ----------------------------------------------------- *)

let test_dist_events_emitted_and_decodable () =
  let sink = Secpol_trace.Sink.memory () in
  let shards = make_shards 2 in
  let r, _ =
    Coordinator.enforce ~sink ~nonce:(Coordinator.fresh_nonce ()) shards
      denying_input
  in
  ignore r;
  let events = Secpol_trace.Sink.events sink in
  let dist_kinds =
    List.filter_map
      (function
        | Secpol_trace.Event.Dist { kind; _ } -> Some kind | _ -> None)
      events
  in
  Alcotest.(check bool) "shard starts traced" true
    (List.mem Secpol_trace.Event.Shard_start dist_kinds);
  Alcotest.(check bool) "shard replies traced" true
    (List.mem Secpol_trace.Event.Shard_reply dist_kinds);
  Alcotest.(check bool) "the merge is traced" true
    (List.mem Secpol_trace.Event.Merge dist_kinds);
  (* And the trace survives its own codec. *)
  List.iter
    (fun e ->
      match Secpol_trace.Event.of_jsonl (Secpol_trace.Event.to_jsonl e) with
      | Ok e' when Secpol_trace.Event.equal e e' -> ()
      | Ok _ -> Alcotest.fail "dist event changed through jsonl"
      | Error m -> Alcotest.failf "dist event undecodable: %s" m)
    events

let () =
  Alcotest.run "dist"
    [
      ("slices", [ prop_slices_partition ]);
      ( "wire",
        [
          prop_msg_roundtrip;
          prop_msg_damage_rejected;
          Alcotest.test_case "foreign-version" `Quick
            test_msg_foreign_version_rejected;
          Alcotest.test_case "content-equal" `Quick
            test_msg_content_equal_ignores_attempt;
        ] );
      ( "merge",
        [
          Alcotest.test_case "fault-free-parity" `Quick test_fault_free_parity;
          prop_merge_idempotent_under_disorder;
          Alcotest.test_case "total-loss-partition" `Quick
            test_total_loss_is_partition;
          Alcotest.test_case "killed-shard-grant" `Quick
            test_killed_shard_grants_become_partition;
          Alcotest.test_case "killed-shard-denial" `Quick
            test_killed_shard_never_grants_and_can_deny;
          Alcotest.test_case "journaled-recovery" `Quick
            test_journaled_kill_recovers_via_retransmit;
          Alcotest.test_case "stray-traffic" `Quick
            test_foreign_nonce_and_garbage_ignored;
          Alcotest.test_case "zero-deadline" `Quick
            test_zero_deadline_times_out_to_partition;
        ] );
      ( "plans",
        [
          Alcotest.test_case "deterministic" `Quick
            test_plans_deterministic_and_described;
        ] );
      ( "run-facade",
        [
          Alcotest.test_case "parity-and-refusals" `Quick
            test_run_facade_parity_and_refusals;
          Alcotest.test_case "metrics" `Quick test_run_facade_metrics;
          Alcotest.test_case "shard-media-closed" `Quick
            test_run_facade_closes_shard_media;
        ] );
      ( "events",
        [
          Alcotest.test_case "lifecycle" `Quick
            test_dist_events_emitted_and_decodable;
        ] );
    ]
