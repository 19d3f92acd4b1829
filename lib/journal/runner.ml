module Iset = Secpol_core.Iset
module Value = Secpol_core.Value
module Mechanism = Secpol_core.Mechanism
module Graph = Secpol_flowgraph.Graph
module Hook = Secpol_flowgraph.Hook
module Emit = Secpol_flowgraph.Emit
module Expr = Secpol_flowgraph.Expr
module Dynamic = Secpol_taint.Dynamic
module Event = Secpol_trace.Event
module Sink = Secpol_trace.Sink

let snapshot_magic = "secpol-journal"
let default_snapshot_every = 32

type header = {
  program_ref : string;
  graph_name : string;
  graph_hash : string;
  arity : int;
  inputs : Value.t array;
  mode : Dynamic.mode;
  allowed : Iset.t;
  fuel : int;
  cost : Expr.cost_model;
  chatty : bool;
  snapshot_every : int;
  run_nonce : int;
}

(* MD5 over the printed graph, not CRC-32: the resume gate that refuses to
   replay a journal against a different program must not be defeatable by a
   32-bit collision. *)
let graph_hash g = Digest.string (Format.asprintf "%a" Graph.pp g)

(* Each run stamps a fresh nonce into its snapshot header and every journal
   record it appends. Replay skips records carrying a foreign nonce: when a
   journal directory is reused for a second run and a crash lands between
   the new snapshot's rename and the journal truncation, the previous run's
   strayed records — its verdict included — must never be adopted under the
   new header (a stale grant under different inputs or policy would be
   fail-open). *)
(* Domain-safe: parallel sweeps mint nonces from several domains at once,
   and [lazy (Random.State.make_self_init ())] is neither safe to force
   concurrently nor safe to share. An atomic counter mixed (splitmix64
   finalizer) with a per-process seed gives process-unique, well-spread
   nonces without any lock. *)
let nonce_seed =
  Int64.add
    (Int64.of_float (Unix.gettimeofday () *. 1e6))
    (Int64.mul (Int64.of_int (Unix.getpid ())) 0x9E3779B97F4A7C15L)

let nonce_counter = Atomic.make 0

let fresh_nonce () =
  let z =
    Int64.add nonce_seed
      (Int64.mul
         (Int64.of_int (1 + Atomic.fetch_and_add nonce_counter 1))
         0x9E3779B97F4A7C15L)
  in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int z land max_int

let config_of_header ?(emit = Emit.none) h =
  {
    Dynamic.mode = h.mode;
    allowed = h.allowed;
    fuel = h.fuel;
    cost = h.cost;
    chatty_notices = h.chatty;
    hook = Hook.none;
    emit;
  }

(* --- payload codecs ------------------------------------------------------ *)

let mode_tag = function
  | Dynamic.High_water -> 0
  | Dynamic.Surveillance -> 1
  | Dynamic.Scoped -> 2
  | Dynamic.Timed -> 3

let mode_of_tag = function
  | 0 -> Dynamic.High_water
  | 1 -> Dynamic.Surveillance
  | 2 -> Dynamic.Scoped
  | 3 -> Dynamic.Timed
  | t ->
      raise (Codec.Error (Codec.Malformed (Printf.sprintf "mode: unknown tag %d" t)))

let cost_tag = function Expr.Uniform -> 0 | Expr.Operand_sized -> 1

let cost_of_tag = function
  | 0 -> Expr.Uniform
  | 1 -> Expr.Operand_sized
  | t ->
      raise (Codec.Error (Codec.Malformed (Printf.sprintf "cost: unknown tag %d" t)))

let write_header b h =
  Codec.W.string b h.program_ref;
  Codec.W.string b h.graph_name;
  Codec.W.string b h.graph_hash;
  Codec.W.int b h.run_nonce;
  Codec.W.int b h.arity;
  Codec.W.int b (Array.length h.inputs);
  Array.iter (Codec.write_value b) h.inputs;
  Codec.W.int b (mode_tag h.mode);
  Codec.W.int b (Iset.to_mask h.allowed);
  Codec.W.int b h.fuel;
  Codec.W.int b (cost_tag h.cost);
  Codec.W.bool b h.chatty;
  Codec.W.int b h.snapshot_every

let read_header r =
  let program_ref = Codec.R.string r in
  let graph_name = Codec.R.string r in
  let graph_hash = Codec.R.string r in
  let run_nonce = Codec.R.int r in
  let arity = Codec.R.int r in
  let n = Codec.R.int r in
  if n < 0 || n > Codec.R.remaining r then
    raise (Codec.Error (Codec.Malformed "header: bad input count"));
  let inputs = Array.init n (fun _ -> Codec.read_value r) in
  let mode = mode_of_tag (Codec.R.int r) in
  let mask = Codec.R.int r in
  if mask < 0 then
    raise (Codec.Error (Codec.Malformed "header: negative policy mask"));
  let allowed = Iset.of_mask mask in
  let fuel = Codec.R.int r in
  let cost = cost_of_tag (Codec.R.int r) in
  let chatty = Codec.R.bool r in
  let snapshot_every = Codec.R.int r in
  if snapshot_every < 1 then
    raise (Codec.Error (Codec.Malformed "header: snapshot interval < 1"));
  {
    program_ref;
    graph_name;
    graph_hash;
    arity;
    inputs;
    mode;
    allowed;
    fuel;
    cost;
    chatty;
    snapshot_every;
    run_nonce;
  }

let snapshot_payload ?version h image =
  let b = Codec.W.create () in
  Codec.W.string b snapshot_magic;
  Codec.write_version ?version b;
  write_header b h;
  (match image with
  | None -> Codec.W.bool b false
  | Some im ->
      Codec.W.bool b true;
      Codec.write_image b im);
  Codec.W.contents b

let decode_snapshot payload =
  Codec.guard (fun () ->
      let r = Codec.R.of_string payload in
      let m = Codec.R.string r in
      if m <> snapshot_magic then
        raise (Codec.Error (Codec.Bad_magic { got = m; want = snapshot_magic }));
      Codec.read_version r;
      let h = read_header r in
      let image =
        if Codec.R.bool r then Some (Codec.read_image r) else None
      in
      if not (Codec.R.eof r) then
        raise (Codec.Error (Codec.Malformed "snapshot: trailing bytes"));
      (h, image))

type record = State of Dynamic.image | Verdict of Mechanism.reply

(* Every record opens with the layout version and the nonce of the run that
   appended it; {!decode_record} surfaces the nonce so replay can skip
   records strayed from a previous run of the same medium. *)

let state_payload ?version ~nonce im =
  let b = Codec.W.create () in
  Codec.write_version ?version b;
  Codec.W.int b nonce;
  Codec.W.int b 0;
  Codec.write_image b im;
  Codec.W.contents b

let verdict_payload ?version ~nonce (reply : Mechanism.reply) =
  let b = Codec.W.create () in
  Codec.write_version ?version b;
  Codec.W.int b nonce;
  Codec.W.int b 1;
  (match reply.Mechanism.response with
  | Mechanism.Granted v ->
      Codec.W.int b 0;
      Codec.write_value b v
  | Mechanism.Denied n ->
      Codec.W.int b 1;
      Codec.W.string b n
  | Mechanism.Hung -> Codec.W.int b 2
  | Mechanism.Failed m ->
      Codec.W.int b 3;
      Codec.W.string b m);
  Codec.W.int b reply.Mechanism.steps;
  Codec.W.contents b

let decode_record payload =
  Codec.guard (fun () ->
      let r = Codec.R.of_string payload in
      Codec.read_version r;
      let nonce = Codec.R.int r in
      let record =
        match Codec.R.int r with
        | 0 -> State (Codec.read_image r)
        | 1 ->
            let response =
              match Codec.R.int r with
              | 0 -> Mechanism.Granted (Codec.read_value r)
              | 1 -> Mechanism.Denied (Codec.R.string r)
              | 2 -> Mechanism.Hung
              | 3 -> Mechanism.Failed (Codec.R.string r)
              | t ->
                  raise
                    (Codec.Error
                       (Codec.Malformed
                          (Printf.sprintf "verdict: unknown tag %d" t)))
            in
            let steps = Codec.R.int r in
            Verdict { Mechanism.response; steps }
        | t ->
            raise
              (Codec.Error
                 (Codec.Malformed (Printf.sprintf "record: unknown kind %d" t)))
      in
      if not (Codec.R.eof r) then
        raise (Codec.Error (Codec.Malformed "record: trailing bytes"));
      (nonce, record))

(* --- the journaled run --------------------------------------------------- *)

type outcome =
  | Completed of Mechanism.reply
  | Killed of { at_box : int; steps : int }

(* Shared by fresh runs and resumed ones. Commit one box at a time; after
   each commit append its full-state record, and every [snapshot_every]
   records fold the journal into a fresh snapshot. The verdict is appended
   and the medium synced BEFORE it is returned: once a reply has been
   released it is durable, so no recovery can ever contradict an
   already-released verdict. That sync is the run's one barrier; the
   frames before the verdict ride on it. [kill_at] stops the loop after
   that many committed (journaled) boxes — the chaos sweep's simulated
   process death. *)
let journaled_loop ?kill_at ?(sink = Sink.null) ~media ~header m st0 =
  let nonce = header.run_nonce in
  let boxes = ref 0 and since_snap = ref 0 in
  let emit st =
    Media.append media (Frame.frame (state_payload ~nonce (Dynamic.image st)));
    incr since_snap;
    if !since_snap >= header.snapshot_every then begin
      Media.checkpoint media (Frame.frame (snapshot_payload header (Some (Dynamic.image st))));
      Sink.emit sink
        (Event.Journal
           {
             kind = Event.Checkpoint;
             step = Dynamic.steps_of st;
             detail = Printf.sprintf "after box %d" !boxes;
           });
      since_snap := 0
    end
  in
  let rec loop st =
    match kill_at with
    | Some k when !boxes >= k ->
        Killed { at_box = !boxes; steps = Dynamic.steps_of st }
    | _ -> (
        match Dynamic.step m st with
        | Dynamic.Final r ->
            Media.append media (Frame.frame (verdict_payload ~nonce r));
            Media.sync media;
            Sink.emit sink (Event.of_reply r);
            Completed r
        | Dynamic.Step st' ->
            incr boxes;
            emit st';
            loop st')
  in
  loop st0

let run ?kill_at ?(snapshot_every = default_snapshot_every) ?(sink = Sink.null)
    ~media ~program_ref (cfg : Dynamic.config) g inputs =
  if snapshot_every < 1 then invalid_arg "Runner.run: snapshot_every < 1";
  Sink.emit sink
    (Event.run_header ~program:program_ref ~arity:g.Graph.arity
       ~mode:(Dynamic.mode_name cfg.Dynamic.mode)
       ~allowed:cfg.Dynamic.allowed ~inputs);
  let header =
    {
      program_ref;
      graph_name = g.Graph.name;
      graph_hash = graph_hash g;
      arity = g.Graph.arity;
      inputs = Array.copy inputs;
      mode = cfg.Dynamic.mode;
      allowed = cfg.Dynamic.allowed;
      fuel = cfg.Dynamic.fuel;
      cost = cfg.Dynamic.cost;
      chatty = cfg.Dynamic.chatty_notices;
      snapshot_every;
      run_nonce = fresh_nonce ();
    }
  in
  let m = Dynamic.prepare cfg g in
  match Dynamic.start m inputs with
  | Error r ->
      (* The run died at the door (arity, non-integer input). Journal the
         verdict anyway: resuming must reproduce the same Failed reply. *)
      Media.checkpoint media (Frame.frame (snapshot_payload header None));
      Media.append media
        (Frame.frame (verdict_payload ~nonce:header.run_nonce r));
      Media.sync media;
      Sink.emit sink (Event.of_reply r);
      Completed r
  | Ok st0 ->
      Media.checkpoint media (Frame.frame (snapshot_payload header (Some (Dynamic.image st0))));
      journaled_loop ?kill_at ~sink ~media ~header m st0

(* --- recovery ------------------------------------------------------------ *)

type failure =
  | No_journal
  | Decode of Codec.decode_error
  | Program_mismatch of string

let failure_message = function
  | No_journal -> "no journal found"
  | Decode e -> Codec.error_message e
  | Program_mismatch m -> "program mismatch: " ^ m

type resumed = {
  header : header;
  replayed : int;
  resumed_steps : int;
  torn_bytes : int;
  was_complete : bool;
  reply : Mechanism.reply;
}

let resume ?kill_at ?emit ?(sink = Sink.null) ~resolve ~media () =
  match Media.load media with
  | None -> Error No_journal
  | Some (snap_bytes, jour_bytes) -> (
      match Frame.one snap_bytes with
      | Error e -> Error (Decode e)
      | Ok payload -> (
          match decode_snapshot payload with
          | Error e -> Error (Decode e)
          | Ok (header, snap_image) -> (
              match resolve header with
              | Error m -> Error (Program_mismatch m)
              | Ok g ->
                  if graph_hash g <> header.graph_hash then
                    Error
                      (Program_mismatch
                         (Printf.sprintf
                            "%s digests to %s, journal was written against %s"
                            g.Graph.name
                            (Digest.to_hex (graph_hash g))
                            (Digest.to_hex header.graph_hash)))
                  else if g.Graph.arity <> header.arity then
                    Error
                      (Program_mismatch
                         (Printf.sprintf "arity %d, journal has %d"
                            g.Graph.arity header.arity))
                  else (
                    match Frame.scan jour_bytes with
                    | Error e -> Error (Decode e)
                    | Ok { Frame.records; dropped_bytes } -> (
                        (* Replay: adopt each state record whose step count
                           strictly advances the state — full-state records
                           make replay a monotone fold, so replaying a
                           journal twice lands on the same state as once,
                           and stale records left by a crash between
                           snapshot rename and journal reset are skipped.
                           Records stamped with a nonce other than this
                           run's are strays from a PREVIOUS run of the same
                           medium (the crash landed between the new
                           snapshot's rename and the journal truncation);
                           adopting them — the old verdict above all —
                           would re-deliver a stale reply under the new
                           header, so they are skipped wholesale. *)
                        let skip step detail =
                          Sink.emit sink
                            (Event.Journal { kind = Event.Replay_skip; step; detail })
                        in
                        let rec replay current verdict n = function
                          | [] -> Ok (current, verdict, n)
                          | payload :: rest -> (
                              match decode_record payload with
                              | Error e -> Error (Decode e)
                              | Ok (nonce, _) when nonce <> header.run_nonce
                                ->
                                  skip 0 "foreign run nonce";
                                  replay current verdict n rest
                              | Ok (_, Verdict r) ->
                                  replay current (Some r) n rest
                              | Ok (_, State im) ->
                                  let advance =
                                    match current with
                                    | None -> true
                                    | Some cur ->
                                        im.Dynamic.im_steps
                                        > cur.Dynamic.im_steps
                                  in
                                  if advance then replay (Some im) verdict (n + 1) rest
                                  else begin
                                    skip im.Dynamic.im_steps
                                      "stale state record (step count does not advance)";
                                    replay current verdict n rest
                                  end)
                        in
                        match replay snap_image None 0 records with
                        | Error e -> Error e
                        | Ok (_, Some r, replayed) ->
                            (* The run finished and its verdict is on the
                               medium; re-deliver it bit-identically. *)
                            Sink.emit sink
                              (Event.Journal
                                 {
                                   kind = Event.Resume;
                                   step = r.Mechanism.steps;
                                   detail =
                                     Printf.sprintf
                                       "verdict already journaled (%d records replayed)"
                                       replayed;
                                 });
                            Sink.emit sink (Event.of_reply r);
                            Ok
                              {
                                header;
                                replayed;
                                resumed_steps = r.Mechanism.steps;
                                torn_bytes = dropped_bytes;
                                was_complete = true;
                                reply = r;
                              }
                        | Ok (current, None, replayed) -> (
                            let cfg = config_of_header ?emit header in
                            let m = Dynamic.prepare cfg g in
                            let st =
                              match current with
                              | Some im -> (
                                  match Dynamic.of_image g im with
                                  | Ok st -> Ok st
                                  | Error msg ->
                                      Error (Decode (Codec.Malformed msg)))
                              | None -> (
                                  (* Crash before the first checkpoint
                                     carried a state: start over from the
                                     journaled inputs. *)
                                  match Dynamic.start m header.inputs with
                                  | Ok st -> Ok st
                                  | Error r -> Error (Decode (Codec.Malformed
                                      ("initial state unavailable: "
                                       ^ (match r.Mechanism.response with
                                         | Mechanism.Failed msg -> msg
                                         | _ -> "start failed")))))
                            in
                            match st with
                            | Error e -> Error e
                            | Ok st ->
                                let resumed_steps = Dynamic.steps_of st in
                                Sink.emit sink
                                  (Event.Journal
                                     {
                                       kind = Event.Resume;
                                       step = resumed_steps;
                                       detail =
                                         Printf.sprintf
                                           "continuing from step %d (%d records \
                                            replayed, %d torn bytes dropped)"
                                           resumed_steps replayed dropped_bytes;
                                     });
                                (* Continue the monitored run, journaling as
                                   we go — a crash during recovery recovers
                                   too. *)
                                let outcome =
                                  journaled_loop ?kill_at ~sink ~media ~header
                                    m st
                                in
                                let reply =
                                  match outcome with
                                  | Completed r -> r
                                  | Killed { at_box; steps } ->
                                      (* [steps] is the interpreter's count
                                         when the kill fired, not the count
                                         recovery started from — the
                                         simulated-crash reply reports real
                                         progress. *)
                                      {
                                        Mechanism.response =
                                          Mechanism.Failed
                                            (Printf.sprintf
                                               "resume killed after %d boxes"
                                               at_box);
                                        steps;
                                      }
                                in
                                Ok
                                  {
                                    header;
                                    replayed;
                                    resumed_steps;
                                    torn_bytes = dropped_bytes;
                                    was_complete = false;
                                    reply;
                                  }))))))
