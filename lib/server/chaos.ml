module Value = Secpol_core.Value
module Policy = Secpol_core.Policy
module Space = Secpol_core.Space
module Mechanism = Secpol_core.Mechanism
module Notice = Secpol_core.Notice
module Dynamic = Secpol_taint.Dynamic
module Paper = Secpol_corpus.Paper_programs
module Json = Secpol_staticflow.Lint.Json
module Metrics = Secpol_trace.Metrics
module Sink = Secpol_trace.Sink
module Guard = Secpol_fault.Guard
module Splan = Secpol_fault.Server_plan
module Harness = Secpol_fault.Harness
module Frame = Secpol_journal.Frame

let session_name = "s"
let session_fuel = 4096

let stats =
  Harness.
    [
      Counter "plans";
      Counter "requests";
      Counter "grants";
      Counter "monitor_denials";
      Counter "overload_denials";
      Counter "recovery_denials";
      Counter "fault_denials";
      Counter "fail_open";
      Counter "clean_mismatch";
      Counter "unanswered";
      Counter "proto_refusals";
      Counter "proto_misses";
      Counter "disconnects";
      Counter "slowloris";
      Counter "malformed";
      Counter "kills";
      Counter "kill_survivals";
      Counter "restarts";
      Counter "resumes";
      Counter "burst_requests";
    ]

(* How a tracked request may legally be answered. [Strict] requests saw no
   fault: the reply must be bit-identical to the guarded single enforcer.
   [Elastic] requests were disturbed (burst overload, kill/restart): a
   grant must still match the clean monitor's value, but Λ/overload and
   Λ/recovery are acceptable fail-secure answers. *)
type kind = Strict | Elastic

type req_state = {
  a : Value.t array;
  guarded : Mechanism.reply;
  clean : Mechanism.reply;
  deadline0 : bool;
  mutable kind : kind;
  mutable answered : bool;
}

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
  Bytes.to_string b

let run_task ~mode ~seeds ~base_seed ~inputs_per_case ~sink
    (ctx : Harness.ctx) (entry, policy) =
  (* The engine writes its server/* series into the task's shard too. *)
  let metrics = ctx.Harness.metrics in
  let c = Metrics.counter metrics in
  let c_plans = c "plans"
  and c_requests = c "requests"
  and c_grants = c "grants"
  and c_monitor = c "monitor_denials"
  and c_overload = c "overload_denials"
  and c_recovery = c "recovery_denials"
  and c_fault_denials = c "fault_denials"
  and c_fail_open = c "fail_open"
  and c_clean_mismatch = c "clean_mismatch"
  and c_unanswered = c "unanswered"
  and c_proto_refusals = c "proto_refusals"
  and c_proto_misses = c "proto_misses"
  and c_disconnects = c "disconnects"
  and c_slowloris = c "slowloris"
  and c_malformed = c "malformed"
  and c_kills = c "kills"
  and c_kill_survivals = c "kill_survivals"
  and c_restarts = c "restarts"
  and c_resumes = c "resumes"
  and c_burst = c "burst_requests" in
  let g = Paper.graph entry in
  let allowed = Option.get (Policy.allowed_indices policy) in
  let pname = Policy.name policy in
  let inputs =
    Array.of_list
      (Harness.spread inputs_per_case
         (List.of_seq (Space.enumerate entry.Paper.space)))
  in
  (* The clean monitor (what a grant must match) under the session's exact
     config, and the guard layered on it exactly as the server layers it —
     the bit-identity baseline for undisturbed requests. *)
  let clean_mech =
    Dynamic.mechanism
      (Dynamic.config ~fuel:session_fuel ~mode (Policy.allow_set allowed))
      g
  in
  let guard_cfg = Guard.default in
  let note ~seed ~input detail =
    ctx.Harness.note
      {
        Harness.subject =
          [ entry.Paper.name; pname; "seed " ^ string_of_int seed; input ];
        fields =
          [
            ("entry", Json.String entry.Paper.name);
            ("policy", Json.String pname);
            ("seed", Json.Int seed);
            ("input", Json.String input);
          ];
        detail;
      }
  in
  let run_plan (plan : Splan.t) =
    Metrics.incr c_plans;
    let smax = if plan.Splan.seed < 0 then 0 else plan.Splan.seed in
    let store = Store.memory () in
    let config =
      {
        Engine.default_config with
        Engine.capacity = 4;
        shed_seed = smax;
        frame_deadline = 1.0;
        exec_budget = 16;
        jobs = 1;
      }
    in
    let now = ref 0.0 in
    let tick () = now := !now +. 0.001 in
    let eng =
      ref (Engine.create ~config ~sink ~metrics ~store ~now:!now ())
    in
    let main = ref (Engine.open_conn !eng ~now:!now) in
    let cst = ref (Wire.Stream.create ()) in
    let reqs : (int, req_state) Hashtbl.t = Hashtbl.create 16 in
    let note_input input detail =
      note ~seed:plan.Splan.seed ~input
        (Printf.sprintf "[plan %s] %s" (Splan.describe plan) detail)
    in
    let note_req (r : req_state) = note_input (Harness.show_input r.a) in
    let note_plan = note_input "-" in
    let mismatch r detail =
      Metrics.incr c_clean_mismatch;
      note_req r detail
    in
    let handle_reply id (reply : Mechanism.reply) =
      match Hashtbl.find_opt reqs id with
      | None -> ()
      | Some r when r.answered -> ()
      | Some r -> (
          r.answered <- true;
          match reply.Mechanism.response with
          | Mechanism.Granted v ->
              (match r.clean.Mechanism.response with
              | Mechanism.Granted w when Value.equal v w ->
                  Metrics.incr c_grants
              | _ ->
                  Metrics.incr c_fail_open;
                  note_req r
                    (Printf.sprintf
                       "FAIL-OPEN: request %d granted %s but clean monitor \
                        replied %s"
                       id (Value.to_string v)
                       (Harness.show_response r.clean.Mechanism.response)));
              if r.deadline0 then
                mismatch r
                  (Printf.sprintf
                     "deadline-0 request %d was served (must shed with %s)" id
                     Wire.overload_notice)
              else if r.kind = Strict && reply <> r.guarded then
                mismatch r
                  (Printf.sprintf
                     "clean request %d not bit-identical: %s vs guarded %s" id
                     (Harness.show_reply reply)
                     (Harness.show_reply r.guarded))
          | Mechanism.Denied n ->
              if not (Notice.in_f n) then begin
                Metrics.incr c_fail_open;
                note_req r
                  (Printf.sprintf
                     "FAIL-OPEN: request %d denied with %S, which is not a \
                      violation notice in F"
                     id n)
              end
              else if n = Wire.overload_notice then begin
                Metrics.incr c_overload;
                if r.kind = Strict && not r.deadline0 then
                  mismatch r
                    (Printf.sprintf "undisturbed request %d shed with %s" id n)
              end
              else if n = Guard.recovery_notice then begin
                Metrics.incr c_recovery;
                if r.kind = Strict then
                  mismatch r
                    (Printf.sprintf "undisturbed request %d denied %s" id n)
              end
              else if n = Guard.degraded_notice then begin
                Metrics.incr c_fault_denials;
                if r.kind = Strict && reply <> r.guarded then
                  mismatch r
                    (Printf.sprintf
                       "clean request %d degraded: %s vs guarded %s" id
                       (Harness.show_reply reply)
                       (Harness.show_reply r.guarded))
              end
              else begin
                Metrics.incr c_monitor;
                if r.kind = Strict && reply <> r.guarded then
                  mismatch r
                    (Printf.sprintf
                       "clean request %d not bit-identical: %s vs guarded %s"
                       id
                       (Harness.show_reply reply)
                       (Harness.show_reply r.guarded))
              end
          | Mechanism.Hung | Mechanism.Failed _ ->
              Metrics.incr c_fail_open;
              note_req r
                (Printf.sprintf
                   "FAIL-OPEN: request %d answered outside E \xe2\x88\xaa F: %s"
                   id
                   (Harness.show_response reply.Mechanism.response)))
    in
    let pump conn stream =
      let bytes = Engine.output !eng ~conn in
      Wire.Stream.feed stream ~now:!now bytes;
      let rec loop acc =
        match Wire.Stream.next stream with
        | `Frame p -> (
            match Wire.decode_response p with
            | Ok r -> loop (r :: acc)
            | Error _ -> List.rev acc)
        | `Await | `Corrupt _ -> List.rev acc
      in
      let rs = loop [] in
      List.iter
        (function
          | Wire.Reply { request_id; reply; _ } -> handle_reply request_id reply
          | Wire.Refused _ -> Metrics.incr c_proto_refusals
          | _ -> ())
        rs;
      rs
    in
    let send req =
      Engine.feed !eng ~conn:!main ~now:!now (Wire.encode_request req)
    in
    (* Step until the admission queue is empty (at least one step). *)
    let settle () =
      let rounds = ref 0 in
      let continue = ref true in
      while !continue do
        Engine.step !eng ~now:!now;
        tick ();
        ignore (pump !main !cst);
        Stdlib.incr rounds;
        if Engine.queue_length !eng = 0 || !rounds >= 50 then continue := false
      done
    in
    let track id a ~kind ~deadline0 =
      let clean = Mechanism.respond clean_mech a in
      let guarded =
        Guard.reply_of_outcome (Guard.run ~config:guard_cfg clean_mech a)
      in
      Hashtbl.replace reqs id { a; guarded; clean; deadline0; kind; answered = false }
    in
    let enforce ?(deadline_us = -1) ~id a =
      Wire.Enforce
        {
          Wire.session = session_name;
          request_id = id;
          program = entry.Paper.name;
          inputs = a;
          deadline_us;
        }
    in
    let input_for k = inputs.((smax + k) mod Array.length inputs) in
    (* Process death and rebirth: a fresh engine on the same store rebuilds
       the sessions and replays the journals; the client reconnects and
       asks Resume for everything still unanswered. *)
    let restart () =
      Metrics.incr c_restarts;
      ignore (pump !main !cst);
      eng := Engine.create ~config ~sink ~metrics ~store ~now:!now ();
      main := Engine.open_conn !eng ~now:!now;
      cst := Wire.Stream.create ();
      let pending =
        List.sort compare
          (Hashtbl.fold
             (fun id (r : req_state) acc ->
               if r.answered then acc else (id, r) :: acc)
             reqs [])
      in
      List.iter
        (fun (id, (r : req_state)) ->
          r.kind <- Elastic;
          Metrics.incr c_resumes;
          send (Wire.Resume { session = session_name; request_id = id }))
        pending;
      settle ()
    in
    (* Open the session. *)
    let spec =
      {
        Wire.session = session_name;
        allowed;
        mode;
        fuel = session_fuel;
        guard_retries = guard_cfg.Guard.retries;
        journaled = plan.Splan.journaled;
      }
    in
    send (Wire.Hello { client = "chaos" });
    send (Wire.Open_session spec);
    Engine.step !eng ~now:!now;
    tick ();
    let rs = pump !main !cst in
    if
      not
        (List.exists
           (function Wire.Session_opened _ -> true | _ -> false)
           rs)
    then begin
      Metrics.incr c_proto_misses;
      note_plan "session open was not acknowledged"
    end;
    (* Drive the scripted requests. *)
    Array.iteri
      (fun i fault ->
        (* Overload burst: more simultaneous requests than the queue can
           hold. Every one of them must still be answered — the clean
           verdict or Λ/overload, never silence. The first one carries a
           zero deadline: already expired on arrival, always shed. *)
        if plan.Splan.burst > 0 && i = plan.Splan.burst_at then begin
          for k = 0 to plan.Splan.burst - 1 do
            let id = 1000 + k in
            let a = input_for (i + k) in
            track id a ~kind:Elastic ~deadline0:(k = 0);
            Metrics.incr c_burst;
            Metrics.incr c_requests;
            send (enforce ~deadline_us:(if k = 0 then 0 else -1) ~id a)
          done;
          settle ()
        end;
        match fault with
        | Splan.Clean ->
            let a = input_for i in
            track i a ~kind:Strict ~deadline0:false;
            Metrics.incr c_requests;
            send (enforce ~id:i a);
            settle ()
        | Splan.Disconnect ->
            (* Client hangs up mid-frame: the half-written request never
               becomes a request; the server must shrug and carry on. *)
            Metrics.incr c_disconnects;
            let conn = Engine.open_conn !eng ~now:!now in
            let frame =
              Wire.encode_request (enforce ~id:(500 + i) (input_for i))
            in
            Engine.feed !eng ~conn ~now:!now
              (String.sub frame 0 (String.length frame / 2));
            Engine.step !eng ~now:!now;
            tick ();
            Engine.close_conn !eng ~conn;
            settle ()
        | Splan.Slowloris ->
            (* A frame that dribbles in and then stalls: after the frame
               deadline the connection is refused, never served. *)
            Metrics.incr c_slowloris;
            let conn = Engine.open_conn !eng ~now:!now in
            let aux = Wire.Stream.create () in
            let frame =
              Wire.encode_request (enforce ~id:(600 + i) (input_for i))
            in
            Engine.feed !eng ~conn ~now:!now (String.sub frame 0 3);
            Engine.step !eng ~now:!now;
            tick ();
            now := !now +. config.Engine.frame_deadline +. 0.1;
            Engine.step !eng ~now:!now;
            tick ();
            let rs = pump conn aux in
            let refused =
              List.exists
                (function
                  | Wire.Refused { code = "slow"; _ } -> true | _ -> false)
                rs
            in
            if not (refused && Engine.conn_closing !eng ~conn) then begin
              Metrics.incr c_proto_misses;
              note_plan
                (Printf.sprintf "slowloris frame at request %d not refused" i)
            end;
            Engine.close_conn !eng ~conn;
            settle ()
        | Splan.Malformed damage ->
            (* Damaged frames: every kind must come back Refused — the
               decode error costs the sender its connection, nothing
               else. *)
            Metrics.incr c_malformed;
            let conn = Engine.open_conn !eng ~now:!now in
            let aux = Wire.Stream.create () in
            let frame =
              Wire.encode_request (enforce ~id:(700 + i) (input_for i))
            in
            let bytes =
              match damage with
              | Splan.Bad_magic -> flip_byte frame 0
              | Splan.Bad_crc -> flip_byte frame (String.length frame - 1)
              | Splan.Truncated ->
                  (* Cut the tail, then let the next frame's bytes slide
                     into the hole: the checksum catches the splice. *)
                  String.sub frame 0 (String.length frame - 2)
                  ^ Wire.encode_request (Wire.Hello { client = "x" })
              | Splan.Foreign_version ->
                  let payload =
                    String.sub frame Frame.header_size
                      (String.length frame - Frame.header_size)
                  in
                  Frame.frame (flip_byte payload 0)
              | Splan.Garbage -> "\x00\x07not-a-frame-at-all"
            in
            Engine.feed !eng ~conn ~now:!now bytes;
            Engine.step !eng ~now:!now;
            tick ();
            let rs = pump conn aux in
            let refused =
              List.exists
                (function
                  | Wire.Refused { code = "proto"; _ } -> true | _ -> false)
                rs
            in
            if not (refused && Engine.conn_closing !eng ~conn) then begin
              Metrics.incr c_proto_misses;
              note_plan
                (Printf.sprintf "malformed frame (%s) at request %d not refused"
                   (Splan.fault_name fault) i)
            end;
            Engine.close_conn !eng ~conn;
            settle ()
        | Splan.Kill ->
            (* The process dies mid-request. A journaled run resumes to its
               bit-identical verdict after the restart; an unjournaled one
               is denied Λ/recovery. Either way: answered, fail-secure. *)
            Metrics.incr c_kills;
            let a = input_for i in
            track i a ~kind:Elastic ~deadline0:false;
            Metrics.incr c_requests;
            Engine.kill_next !eng ~at_box:(1 + ((smax + i) mod 5));
            send (enforce ~id:i a);
            (try
               settle ();
               Metrics.incr c_kill_survivals
             with Engine.Died -> restart ()))
      plan.Splan.faults;
    (* Graceful drain: stop admitting, finish the queue, answer everyone. *)
    send Wire.Drain;
    (try
       let rounds = ref 0 in
       while not (Engine.drained !eng) && !rounds < 100 do
         Engine.step !eng ~now:!now;
         tick ();
         ignore (pump !main !cst);
         Stdlib.incr rounds
       done
     with Engine.Died -> restart ());
    Engine.step !eng ~now:!now;
    ignore (pump !main !cst);
    List.iter
      (fun (id, (r : req_state)) ->
        if not r.answered then begin
          Metrics.incr c_unanswered;
          note_req r
            (Printf.sprintf
               "FAIL-OPEN: request %d accepted but never answered" id)
        end)
      (List.sort compare (Hashtbl.fold (fun id r acc -> (id, r) :: acc) reqs []))
  in
  run_plan (Splan.fault_free ~requests:4);
  for seed = base_seed to base_seed + seeds - 1 do
    run_plan (Splan.generate ~seed ())
  done

let describe ~seeds ~base_seed ~mode count =
  {
    Harness.title =
      Printf.sprintf "server chaos sweep: %d plans (%d seeds from %d), mode %s"
        (count "plans") seeds base_seed (Dynamic.mode_name mode);
    params =
      [
        ("base_seed", Json.Int base_seed);
        ("seeds", Json.Int seeds);
        ("mode", Json.String (Dynamic.mode_name mode));
      ];
    rows =
      [
        ("requests", "enforce requests", None);
        ("grants", "grants", None);
        ("monitor_denials", "monitor denials", None);
        ( "overload_denials",
          "overload denials",
          Some "\xce\x9b/overload \xe2\x88\x88 F" );
        ( "recovery_denials",
          "recovery denials",
          Some "\xce\x9b/recovery \xe2\x88\x88 F" );
        ("fault_denials", "fault denials", None);
        ("fail_open", "fail-open", None);
        ("clean_mismatch", "clean mismatches", None);
        ("unanswered", "unanswered requests", None);
        ("proto_refusals", "connections refused", None);
        ("proto_misses", "refusals missed", None);
        ("disconnects", "client disconnects", None);
        ("slowloris", "slowloris frames", None);
        ("malformed", "malformed frames", None);
        ("kills", "kills armed", Some "process death mid-request");
        ("kill_survivals", "kills outrun", None);
        ("restarts", "restarts", None);
        ("resumes", "resume requests", None);
        ("burst_requests", "burst requests", None);
        ("engine_tasks", "engine tasks", None);
      ];
    verdict_ok =
      "fail-secure (every request answered in E \xe2\x88\xaa F, no fail-open \
       grant, no silence)";
    verdict_fail = "FAIL-OPEN OR SILENT REQUEST DETECTED";
  }

let run ?(entries = Paper.all) ?(mode = Dynamic.Surveillance) ?(seeds = 30)
    ?(base_seed = 0) ?(inputs_per_case = 3) ?(sink = Sink.null) ?(jobs = 1) ()
    =
  let sink = if jobs > 1 then Sink.synchronized sink else sink in
  Harness.run ~jobs ~stats
    ~zero:[ "fail_open"; "clean_mismatch"; "unanswered"; "proto_misses" ]
    ~describe:(describe ~seeds ~base_seed ~mode)
    (Harness.cases entries)
    (run_task ~mode ~seeds ~base_seed ~inputs_per_case ~sink)
