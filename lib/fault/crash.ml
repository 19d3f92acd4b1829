module Iset = Secpol_core.Iset
module Value = Secpol_core.Value
module Policy = Secpol_core.Policy
module Space = Secpol_core.Space
module Mechanism = Secpol_core.Mechanism
module Dynamic = Secpol_taint.Dynamic
module Paper = Secpol_corpus.Paper_programs
module Json = Secpol_staticflow.Lint.Json
module Media = Secpol_journal.Media
module Frame = Secpol_journal.Frame
module Runner = Secpol_journal.Runner
module Metrics = Secpol_trace.Metrics
module Sink = Secpol_trace.Sink

type tamper = Pristine | Torn_tail | Drop_records | Flip_bit_journal | Flip_bit_snapshot

let tamper_name = function
  | Pristine -> "pristine"
  | Torn_tail -> "torn-tail"
  | Drop_records -> "drop-records"
  | Flip_bit_journal -> "flip-bit-journal"
  | Flip_bit_snapshot -> "flip-bit-snapshot"

(* In rendered order, which the golden reports pin: the histogram first,
   then the counters from last to first. *)
let stats =
  Harness.
    [
      Histogram "replayed_records";
      Counter "journal_mismatch";
      Counter "fail_open";
      Counter "divergent";
      Counter "tamper_survived";
      Counter "recovery_notices";
      Counter "complete_replays";
      Counter "identical";
      Counter "crashes";
      Counter "cases";
    ]

(* --- media tampering ----------------------------------------------------- *)

let flip_bit rng s =
  if String.length s = 0 then s
  else
    let pos = Plan.Rng.below rng (String.length s) in
    let bit = Plan.Rng.below rng 8 in
    let by = Bytes.of_string s in
    Bytes.set by pos (Char.chr (Char.code (Bytes.get by pos) lxor (1 lsl bit)));
    Bytes.to_string by

let torn_tail rng s =
  let n = String.length s in
  if n = 0 then s
  else
    let chop = 1 + Plan.Rng.below rng (min n 24) in
    String.sub s 0 (n - chop)

let drop_last_record s =
  match Frame.scan s with
  | Error _ -> s
  | Ok { Frame.records; _ } -> (
      match records with
      | [] -> s
      | _ :: _ ->
          let keep = List.filteri (fun i _ -> i < List.length records - 1) records in
          let b = Buffer.create (String.length s) in
          List.iter (Frame.append b) keep;
          Buffer.contents b)

let tampered_media rng tamper (snapshot, journal) =
  match tamper with
  | Pristine -> (snapshot, journal)
  | Torn_tail -> (snapshot, torn_tail rng journal)
  | Drop_records -> (snapshot, drop_last_record journal)
  | Flip_bit_journal -> (snapshot, flip_bit rng journal)
  | Flip_bit_snapshot -> (flip_bit rng snapshot, journal)

(* Damage that removes journal suffix (torn tails, dropped frames) forces
   honest re-execution and must land back on the clean verdict; damage that
   rewrites surviving bytes (bit flips) must be caught and refused. *)
let survivable = function
  | Pristine | Torn_tail | Drop_records -> true
  | Flip_bit_journal | Flip_bit_snapshot -> false

(* --- the sweep ----------------------------------------------------------- *)

let default_fuel = 2000
let default_snapshot_every = 8

(* One engine task per (entry, policy, input) case. The per-case RNG seed
   is derived from the case's coordinates alone — never from anything
   another case did — so the damage stream, and with it the whole report,
   is identical whatever order (or domain) the cases run in. *)
type case = {
  k_ei : int;
  k_entry : Paper.entry;
  k_policy : Policy.t;
  k_ii : int;
  k_input : Value.t array;
}

let cases_of ~entries ~inputs_per_case =
  List.concat
    (List.mapi
       (fun ei (entry : Paper.entry) ->
         let inputs =
           Harness.spread inputs_per_case
             (List.of_seq (Space.enumerate entry.Paper.space))
         in
         List.concat_map
           (fun (_, policy) ->
             List.mapi
               (fun ii a ->
                 {
                   k_ei = ei;
                   k_entry = entry;
                   k_policy = policy;
                   k_ii = ii;
                   k_input = a;
                 })
               inputs)
           (Harness.cases [ entry ]))
       entries)

let tampers =
  [ Pristine; Torn_tail; Drop_records; Flip_bit_journal; Flip_bit_snapshot ]

let run_case ~mode ~crash_points ~base_seed ~fuel ~snapshot_every ~sink
    ~resolve (ctx : Harness.ctx) case =
  let c = Metrics.counter ctx.Harness.metrics in
  let c_cases = c "cases"
  and c_crashes = c "crashes"
  and c_identical = c "identical"
  and c_complete = c "complete_replays"
  and c_recovery = c "recovery_notices"
  and c_survived = c "tamper_survived"
  and c_divergent = c "divergent"
  and c_fail_open = c "fail_open"
  and c_journal_mismatch = c "journal_mismatch" in
  let h_replayed = Metrics.histogram ctx.Harness.metrics "replayed_records" in
  let entry = case.k_entry and policy = case.k_policy in
  let g = Paper.graph entry in
  let pname = Policy.name policy in
  let cfg = Dynamic.config ~fuel ~mode policy in
  let a = Array.copy case.k_input in
  let iname = Harness.show_input a in
  Metrics.incr c_cases;
  let fault ?(crash_point = -1) ?(tamper = "none") counter detail =
    Metrics.incr counter;
    ctx.Harness.note
      {
        Harness.subject =
          [
            entry.Paper.name;
            pname;
            iname;
            Printf.sprintf "crash@%d" crash_point;
            tamper;
          ];
        fields =
          [
            ("entry", Json.String entry.Paper.name);
            ("policy", Json.String pname);
            ("input", Json.String iname);
            ("crash_point", Json.Int crash_point);
            ("tamper", Json.String tamper);
          ];
        detail;
      }
  in
  let show_reply = Harness.show_reply in
  (* The uninterrupted truth, twice over: the plain monitor and the
     journaled baseline must already agree. *)
  let clean = Dynamic.run cfg g a in
  let base_media = Media.memory () in
  (match
     Runner.run ~snapshot_every ~sink ~media:base_media
       ~program_ref:entry.Paper.name cfg g a
   with
  | Runner.Killed _ -> assert false (* no kill_at *)
  | Runner.Completed r ->
      if r <> clean then
        fault c_journal_mismatch
          (Printf.sprintf "journaled run %s differs from plain monitor %s"
             (show_reply r) (show_reply clean)));
  (* Resuming a COMPLETED journal must re-deliver the verdict without
     re-executing anything. *)
  (match Runner.resume ~sink ~resolve ~media:base_media () with
  | Ok res when res.Runner.was_complete && res.Runner.reply = clean ->
      Metrics.incr c_complete;
      Metrics.observe h_replayed res.Runner.replayed
  | Ok res ->
      fault c_divergent
        (Printf.sprintf
           "resume of completed journal gave %s (complete=%b), clean run was \
            %s"
           (show_reply res.Runner.reply) res.Runner.was_complete
           (show_reply clean))
  | Error e ->
      fault c_divergent
        ("resume of completed journal refused: " ^ Runner.failure_message e));
  (* Kill at every crash point, then resume — pristine first, then with
     seeded damage. *)
  let pmask =
    match Policy.allowed_indices policy with
    | Some s -> Iset.to_mask s
    | None -> 0
  in
  let rng =
    Plan.Rng.create
      (base_seed + (((case.k_ei * 131) + pmask) * 8191) + case.k_ii)
  in
  for k = 0 to crash_points - 1 do
    let media = Media.memory () in
    ignore
      (Runner.run ~kill_at:k ~snapshot_every ~media
         ~program_ref:entry.Paper.name cfg g a);
    match Media.load media with
    | None ->
        fault ~crash_point:k c_divergent "killed run left no snapshot at all"
    | Some bytes -> (
        let tamper = List.nth tampers (k mod List.length tampers) in
        let snapshot, journal = tampered_media rng tamper bytes in
        let media' = Media.memory ~snapshot ~journal () in
        Metrics.incr c_crashes;
        let fault = fault ~crash_point:k ~tamper:(tamper_name tamper) in
        match Runner.resume ~sink ~resolve ~media:media' () with
        | Ok res when res.Runner.reply = clean ->
            Metrics.incr c_identical;
            Metrics.observe h_replayed res.Runner.replayed;
            if tamper <> Pristine then Metrics.incr c_survived
        | Ok res -> (
            match res.Runner.reply.Mechanism.response with
            | Mechanism.Granted _ ->
                fault c_fail_open
                  (Printf.sprintf "FAIL-OPEN: resume granted %s, clean run was %s"
                     (show_reply res.Runner.reply) (show_reply clean))
            | _ ->
                fault c_divergent
                  (Printf.sprintf "resume gave %s, clean run was %s"
                     (show_reply res.Runner.reply) (show_reply clean)))
        | Error e ->
            if survivable tamper then
              fault c_divergent
                (Printf.sprintf
                   "crash damage should be survivable but resume refused: %s"
                   (Runner.failure_message e))
            else
              (* The supervisor's mapping: every refusal is the single
                 notice Λ/recovery, nothing chattier. *)
              let reply = Guard.reply_of_recovery (Error e) in
              if
                reply.Mechanism.response
                = Mechanism.Denied Guard.recovery_notice
              then Metrics.incr c_recovery
              else
                fault c_divergent
                  (Printf.sprintf
                     "recovery refusal mapped to %s, not Λ/recovery"
                     (show_reply reply)))
  done

let describe ~crash_points ~base_seed ~mode count =
  {
    Harness.title =
      Printf.sprintf
        "crash-recovery sweep: %d cases, %d crash points each, mode %s"
        (count "cases") crash_points (Dynamic.mode_name mode);
    params =
      [
        ("base_seed", Json.Int base_seed);
        ("crash_points", Json.Int crash_points);
        ("mode", Json.String (Dynamic.mode_name mode));
      ];
    rows =
      [
        ("crashes", "kill/resume cycles", None);
        ( "identical",
          "bit-identical",
          Some (Printf.sprintf "%d after tampering" (count "tamper_survived"))
        );
        ("complete_replays", "complete replays", None);
        ( "recovery_notices",
          "recovery notices",
          Some "unrecoverable media; all map to Λ/recovery ∈ F" );
        ("journal_mismatch", "journal mismatches", None);
        ("divergent", "divergent", None);
        ("fail_open", "fail-open", None);
      ];
    verdict_ok =
      "durable (every resume bit-identical or Λ/recovery, never fail-open)";
    verdict_fail = "DIVERGENT OR FAIL-OPEN RECOVERY DETECTED";
  }

let run ?(entries = Paper.all) ?(mode = Dynamic.Surveillance)
    ?(crash_points = 50) ?(base_seed = 0) ?(fuel = default_fuel)
    ?(snapshot_every = default_snapshot_every) ?(inputs_per_case = 4)
    ?(sink = Sink.null) ?(jobs = 1) () =
  let sink = if jobs > 1 then Sink.synchronized sink else sink in
  let resolve (h : Runner.header) =
    match
      List.find_opt
        (fun (e : Paper.entry) -> e.Paper.name = h.Runner.program_ref)
        entries
    with
    | Some e -> Ok (Paper.graph e)
    | None ->
        Error (Printf.sprintf "no corpus entry named %s" h.Runner.program_ref)
  in
  Harness.run ~jobs ~stats
    ~zero:[ "divergent"; "fail_open"; "journal_mismatch" ]
    ~describe:(describe ~crash_points ~base_seed ~mode)
    (cases_of ~entries ~inputs_per_case)
    (run_case ~mode ~crash_points ~base_seed ~fuel ~snapshot_every ~sink
       ~resolve)
