module Mechanism = Secpol_core.Mechanism
module Policy = Secpol_core.Policy
module Space = Secpol_core.Space
module Value = Secpol_core.Value
module Dynamic = Secpol_taint.Dynamic
module Graph = Secpol_flowgraph.Graph
module Hook = Secpol_flowgraph.Hook
module Guard = Secpol_fault.Guard
module Runner = Secpol_journal.Runner
module Media = Secpol_journal.Media
module Run = Secpol.Run
module Analyze = Secpol.Analyze
module Codec = Secpol_journal.Codec
module Paper = Secpol_corpus.Paper_programs
module Sink = Secpol_trace.Sink
module Event = Secpol_trace.Event
module Metrics = Secpol_trace.Metrics
module Pool = Secpol_engine.Pool
module Cache = Secpol_engine.Cache
module Json = Secpol_staticflow.Lint.Json

exception Died

type config = {
  server_name : string;
  capacity : int;
  shed_seed : int;
  default_deadline_us : int;
  frame_deadline : float;
  exec_budget : int;
  jobs : int;
  breaker_threshold : int;
  breaker_cooldown : float;
  session_cache : bool;
  ikey_space_limit : int;
  hook : Hook.t;
}

let default_config =
  {
    server_name = "secpol-serve";
    capacity = 64;
    shed_seed = 0;
    default_deadline_us = Wire.default_deadline_us;
    frame_deadline = 2.0;
    exec_budget = 32;
    jobs = 1;
    breaker_threshold = 3;
    breaker_cooldown = 0.5;
    session_cache = true;
    ikey_space_limit = 4096;
    hook = Hook.none;
  }

type conn = {
  id : int;
  stream : Wire.Stream.t;
  out : Buffer.t;
  mutable alive : bool;  (* still reading requests *)
  mutable closing : bool;  (* engine refused it: flush output, then close *)
}

(* A registry series resolved at its first use, the moment a lookup by
   name would register it, and held from then on: the request path builds
   no names and hashes none, and the registration order (which every
   rendering keeps) is the same as a lookup by name. *)
type 'a series = { name : string; mutable handle : 'a option }

let series name = { name; handle = None }

(* One corpus program as the engine serves it. The digest keys the
   session caches; it is computed by the first cache key that needs it,
   once per program. *)
type program = { graph : Graph.t; space : Space.t; digest : string Lazy.t }

(* One session as the engine serves it: the Run config its requests run
   under, its series, the cache counts it last published to them, and the
   bindings of the programs it has named. *)
type served = {
  session : Session.t;
  run : Run.config;  (* policy, mode, fuel, guard, and the engine's hook and sink *)
  s_requests : Metrics.counter series;
  s_sheds : Metrics.counter series;
  s_granted : Metrics.counter series;
  s_latency : Metrics.histogram series;
  s_cache_hits : Metrics.counter series;
  s_cache_misses : Metrics.counter series;
  s_cache_evictions : Metrics.counter series;
  s_breaker : Metrics.gauge series;
  mutable synced_hits : int;
  mutable synced_misses : int;
  mutable synced_evictions : int;
  bindings : (string, binding) Hashtbl.t;  (* program name -> binding *)
}

(* Everything a request needs that depends only on its (session,
   program) pair, resolved by the first request naming the pair. *)
and binding = {
  served : served;
  prog : program;
  policy : Policy.t;
  mech : Mechanism.t;  (* Run.mechanism of the session's config *)
  tag_i : string;  (* cache-key tags: I-projection and exact keys *)
  tag_exact : string;
  mutable ikey : bool option;
      (* is the session mechanism timed-view sound for its policy, i.e.
         may the verdict cache key on the I-projection? Proven by the
         first cacheable request. *)
}

type work = {
  w_enforce : Wire.enforce;
  w_binding : binding;
  w_arrival : float;  (* admission instant, for the latency histograms *)
  w_ckey : Cache.key option;  (* session verdict-cache key; [None] = don't cache *)
}

type t = {
  cfg : config;
  store : Store.t;
  sink : Sink.t;
  tracing : bool;  (* the sink records: build event details *)
  ms : Metrics.t;
  programs : (string, program) Hashtbl.t;
  sessions : (string, served) Hashtbl.t;
  mutable gauged : served list;  (* sessions with a breaker gauge *)
  mutable ungauged : served list;  (* opened since the last gauge refresh *)
  conns : (int, conn) Hashtbl.t;
  queue : work Admission.t;
  mutable next_conn : int;
  mutable kill_at : int option;
}

let config t = t.cfg
let metrics t = t.ms
let stats_json t = Json.render (Metrics.to_json t.ms)
let draining t = Admission.draining t.queue
let drained t = draining t && Admission.length t.queue = 0
let queue_length t = Admission.length t.queue

let kill_next t ~at_box =
  if at_box < 0 then invalid_arg "Engine.kill_next: at_box < 0";
  t.kill_at <- Some at_box

let c t name = Metrics.counter t.ms name
let bump ?by t name = Metrics.incr ?by (c t name)

let resolve_series make t s =
  match s.handle with
  | Some h -> h
  | None ->
      let h = make t.ms s.name in
      s.handle <- Some h;
      h

let sbump ?by t s = Metrics.incr ?by (resolve_series Metrics.counter t s)

let server_event t kind ~conn ~session detail =
  Sink.emit t.sink (Event.Server { kind; conn; session; detail })

let program_of t name =
  match Hashtbl.find_opt t.programs name with
  | Some p -> Some p
  | None -> (
      match Paper.find name with
      | entry ->
          let graph = Paper.graph entry in
          let p =
            { graph; space = entry.Paper.space; digest = lazy (Runner.graph_hash graph) }
          in
          Hashtbl.add t.programs name p;
          Some p
      | exception Not_found -> None)

let resolve t (h : Runner.header) =
  match program_of t h.Runner.program_ref with
  | Some p -> Ok p.graph
  | None -> Error (Printf.sprintf "unknown program %S" h.Runner.program_ref)

let serve_session t session =
  let name = Session.name session in
  let spec = session.Session.spec in
  let s what = series (Printf.sprintf "server/session/%s/%s" name what) in
  let sv =
    {
      session;
      run =
        Run.config
          ~policy:(Policy.allow_set spec.Wire.allowed)
          ~mode:spec.Wire.mode ~fuel:spec.Wire.fuel ~hook:t.cfg.hook
          ~trace:t.sink
          ~guard:{ Guard.default with Guard.retries = spec.Wire.guard_retries }
          ();
      s_requests = s "requests";
      s_sheds = s "sheds";
      s_granted = s "granted";
      s_latency = s "latency-us";
      s_cache_hits = s "cache-hits";
      s_cache_misses = s "cache-misses";
      s_cache_evictions = s "cache-evictions";
      s_breaker = s "breaker-open";
      synced_hits = 0;
      synced_misses = 0;
      synced_evictions = 0;
      bindings = Hashtbl.create 4;
    }
  in
  Hashtbl.replace t.sessions name sv;
  t.ungauged <- sv :: t.ungauged;
  sv

(* ---------- recovery on restart ---------- *)

(* Complete (or refuse) every journaled run the dead process left behind,
   before any client reconnects: an interrupted run either resumes to its
   bit-identical verdict — re-delivered on the Resume request — or its
   journal is untrusted and the verdict is Λ/recovery. Either way the
   request is answered, never silently forgotten. *)
let recover t =
  let sessions = List.map (serve_session t) (Session.load_all t.store) in
  if sessions <> [] then begin
    if t.tracing then
      server_event t Event.Restart ~conn:(-1) ~session:""
        (Printf.sprintf "%d sessions" (List.length sessions));
    bump t "server/restarts"
  end;
  List.iter
    (fun sv ->
      let name = Session.name sv.session in
      if sv.session.Session.spec.Wire.journaled then
        List.iter
          (fun key ->
            if Store.has_media t.store key then begin
              let media = Store.media t.store key in
              (match Run.resume sv.run ~resolve:(resolve t) ~media with
              | Ok _ -> bump t "server/resumed-runs"
              | Error Runner.No_journal -> ()
              | Error _ -> bump t "server/recovery-refusals");
              Media.close media;
              server_event t Event.Resume_serve ~conn:(-1) ~session:name key
            end)
          (Store.keys t.store ~prefix:(Session.media_prefix ~session:name)))
    sessions

let create ?(config = default_config) ?(sink = Sink.null) ?metrics ~store ~now:_ () =
  if config.capacity < 1 then invalid_arg "Engine.create: capacity < 1";
  if config.exec_budget < 1 then invalid_arg "Engine.create: exec_budget < 1";
  let ms = match metrics with Some m -> m | None -> Metrics.create () in
  let t =
    {
      cfg = config;
      store;
      sink;
      tracing = not (Sink.is_null sink);
      ms;
      programs = Hashtbl.create 16;
      sessions = Hashtbl.create 16;
      gauged = [];
      ungauged = [];
      conns = Hashtbl.create 16;
      queue = Admission.create ~seed:config.shed_seed ~capacity:config.capacity ();
      next_conn = 0;
      kill_at = None;
    }
  in
  recover t;
  t

(* ---------- connections ---------- *)

let open_conn t ~now:_ =
  let id = t.next_conn in
  t.next_conn <- id + 1;
  Hashtbl.replace t.conns id
    { id; stream = Wire.Stream.create (); out = Buffer.create 256; alive = true; closing = false };
  server_event t Event.Conn_open ~conn:id ~session:"" "";
  bump t "server/conns";
  id

let feed t ~conn ~now bytes =
  match Hashtbl.find_opt t.conns conn with
  | Some cn when cn.alive && not cn.closing -> Wire.Stream.feed cn.stream ~now bytes
  | _ -> ()

let close_conn t ~conn =
  match Hashtbl.find_opt t.conns conn with
  | Some cn ->
      server_event t Event.Conn_close ~conn ~session:"" "";
      bump t "server/disconnects";
      Hashtbl.remove t.conns conn;
      ignore cn
  | None -> ()

let output t ~conn =
  match Hashtbl.find_opt t.conns conn with
  | Some cn ->
      let s = Buffer.contents cn.out in
      Buffer.clear cn.out;
      s
  | None -> ""

let conn_closing t ~conn =
  match Hashtbl.find_opt t.conns conn with Some cn -> cn.closing | None -> false

let conn_alive t ~conn =
  match Hashtbl.find_opt t.conns conn with Some cn -> cn.alive | None -> false

let push t conn_id resp =
  match Hashtbl.find_opt t.conns conn_id with
  | Some cn -> Buffer.add_string cn.out (Wire.encode_response resp)
  | None -> bump t "server/dropped-replies"

(* Refuse the connection: answer, stop reading, let the transport flush. *)
let refuse t (cn : conn) code detail =
  push t cn.id (Wire.Refused { code; detail });
  cn.closing <- true;
  if t.tracing then
    server_event t Event.Proto_error ~conn:cn.id ~session:"" (code ^ ": " ^ detail);
  bump t "server/proto-errors"

(* ---------- request handling ---------- *)

let overload_reply =
  { Mechanism.response = Mechanism.Denied Wire.overload_notice; steps = 0 }

let recovery_reply =
  { Mechanism.response = Mechanism.Denied Guard.recovery_notice; steps = 0 }

(* ---------- cross-request session verdict cache ---------- *)

(* The cache key may collapse inputs to their I-projection only when that
   is {e proven} for this session's mechanism: sound under the timed view,
   so the whole reply — steps included — is constant per I-class and a
   cached representative is bit-identical to a fresh run (DESIGN §13). The
   proof is Analyze's soundness check over the program's corpus space, run
   once per binding on the clean mechanism (the session's config with no
   hook, sink or guard); when it fails the key falls back to the full
   input vector, which is sound for any mechanism.

   The proof runs synchronously on the serving loop, so it is bounded:
   a space larger than [ikey_space_limit] (or whose size overflows) is
   never enumerated on the request path — the session simply keys on
   exact inputs, which costs cache density, never correctness or
   latency. *)
let ikey_strategy t b =
  match b.ikey with
  | Some v -> v
  | None ->
      let space = b.prog.space in
      let provable =
        match Space.size space with
        | n -> n <= t.cfg.ikey_space_limit
        | exception Invalid_argument _ -> false
      in
      let v =
        if not provable then begin
          bump t "server/cache-ikey-skips";
          false
        end
        else
          let clean =
            { b.served.run with Run.hook = Hook.none; trace = Sink.null; guard = None }
          in
          match
            Analyze.soundness
              (Analyze.config ~view:`Timed space)
              b.policy
              (Run.mechanism clean b.prog.graph)
          with
          | Sound, _ -> true
          | Unsound _, _ -> false
      in
      b.ikey <- Some v;
      bump t (if v then "server/cache-ikeys" else "server/cache-exact-keys");
      v

let cache_key t b inputs =
  (* The soundness proof quantifies over the corpus space only, so the
     I-projection covers exactly the inputs in that space. An arbitrary
     wire input outside it must key on the full vector: its Policy.image
     may collide with an in-space input's class, and replaying that
     class's cached verdict for it is exactly the enforcement hole the
     proof does not rule out. *)
  let ikey =
    ikey_strategy t b
    &&
    if Space.mem b.prog.space inputs then true
    else begin
      bump t "server/cache-out-of-space";
      false
    end
  in
  let projection =
    if ikey then Policy.image b.policy inputs else Value.tuple (Array.to_list inputs)
  in
  {
    Cache.digest = Lazy.force b.prog.digest;
    tag = (if ikey then b.tag_i else b.tag_exact);
    projection;
  }

(* Only settled monitor verdicts are cached: grants and policy denials are
   deterministic functions of the key, while [Λ/degraded]/[Λ/recovery]/
   [Λ/overload], [Hung] and [Failed] describe the infrastructure of one
   particular attempt — caching those would make a transient fault
   permanent. *)
let cacheable (reply : Mechanism.reply) =
  match reply.Mechanism.response with
  | Mechanism.Granted _ -> true
  | Mechanism.Denied n ->
      n <> Guard.degraded_notice && n <> Guard.recovery_notice
      && n <> Wire.overload_notice
  | Mechanism.Hung | Mechanism.Failed _ -> false

(* Surface the session cache's own hit/miss/eviction counts as monotone
   counters, per session and in aggregate: publish what the cache counted
   since this engine last synced the session. The registry can outlive
   the engine (a restart, or a sweep that shares one registry across
   engines), so the baseline is the engine's own last sync, never the
   registry's running total. *)
let sync_cache_counters t (sv : served) =
  let publish s what ~count ~synced =
    let d = count - synced in
    if d > 0 then begin
      sbump ~by:d t s;
      bump ~by:d t what
    end;
    count
  in
  let cache = sv.session.Session.cache in
  sv.synced_hits <-
    publish sv.s_cache_hits "server/session-cache-hits" ~count:(Cache.hits cache)
      ~synced:sv.synced_hits;
  sv.synced_misses <-
    publish sv.s_cache_misses "server/session-cache-misses"
      ~count:(Cache.misses cache) ~synced:sv.synced_misses;
  sv.synced_evictions <-
    publish sv.s_cache_evictions "server/session-cache-evictions"
      ~count:(Cache.evictions cache) ~synced:sv.synced_evictions

let shed t (e : work Admission.entry) reason =
  push t e.Admission.conn
    (Wire.Reply
       {
         session = e.Admission.session;
         request_id = e.Admission.request_id;
         reply = overload_reply;
       });
  if t.tracing then begin
    let kind =
      match reason with Admission.Expired -> Event.Expire | _ -> Event.Shed
    in
    server_event t kind ~conn:e.Admission.conn ~session:e.Admission.session
      (Printf.sprintf "request %d: %s" e.Admission.request_id
         (Admission.reason_name reason))
  end;
  bump t "server/shed";
  bump t
    (match reason with
    | Admission.Expired -> "server/shed-expired"
    | Admission.Queue_full -> "server/shed-queue-full"
    | Admission.Draining -> "server/shed-draining");
  sbump t e.Admission.work.w_binding.served.s_sheds

(* The binding of (session, program), resolved by the first request
   naming the pair; [None] for a program outside the corpus. *)
let binding_of t (sv : served) program =
  match Hashtbl.find_opt sv.bindings program with
  | Some b -> Some b
  | None -> (
      match program_of t program with
      | None -> None
      | Some prog ->
          let spec = sv.session.Session.spec in
          let tag kind =
            Printf.sprintf "%s|fuel=%d|%s" (Dynamic.mode_name spec.Wire.mode)
              spec.Wire.fuel kind
          in
          let b =
            {
              served = sv;
              prog;
              policy = Option.get sv.run.Run.policy;
              mech = Run.mechanism sv.run prog.graph;
              tag_i = tag "I";
              tag_exact = tag "exact";
              ikey = None;
            }
          in
          Hashtbl.add sv.bindings program b;
          Some b)

let handle_enforce t (cn : conn) ~now (e : Wire.enforce) =
  match Hashtbl.find_opt t.sessions e.Wire.session with
  | None ->
      refuse t cn "unknown-session"
        (Printf.sprintf "no session %S (request %d)" e.Wire.session e.Wire.request_id)
  | Some sv -> (
      match binding_of t sv e.Wire.program with
      | None ->
          refuse t cn "unknown-program"
            (Printf.sprintf "no program %S (request %d)" e.Wire.program e.Wire.request_id)
      | Some b when Graph.(b.prog.graph.arity) <> Array.length e.Wire.inputs ->
          refuse t cn "bad-arity"
            (Printf.sprintf "%s wants %d inputs, got %d (request %d)" e.Wire.program
               Graph.(b.prog.graph.arity) (Array.length e.Wire.inputs) e.Wire.request_id)
      | Some b ->
          bump t "server/requests";
          sbump t sv.s_requests;
          let d_us =
            if e.Wire.deadline_us < 0 then t.cfg.default_deadline_us
            else e.Wire.deadline_us
          in
          let deadline = now +. (float_of_int d_us /. 1e6) in
          let ckey =
            if t.cfg.session_cache && not sv.session.Session.spec.Wire.journaled
            then Some (cache_key t b e.Wire.inputs)
            else None
          in
          let decisions =
            Admission.offer t.queue ~now ~conn:cn.id ~session:e.Wire.session
              ~request_id:e.Wire.request_id ~deadline
              { w_enforce = e; w_binding = b; w_arrival = now; w_ckey = ckey }
          in
          List.iter
            (function
              | `Admitted (a : work Admission.entry) ->
                  bump t "server/admitted";
                  Metrics.observe
                    (Metrics.histogram t.ms "server/queue-depth")
                    (Admission.length t.queue);
                  if t.tracing then
                    server_event t Event.Admit ~conn:a.Admission.conn
                      ~session:a.Admission.session
                      (Printf.sprintf "request %d" a.Admission.request_id)
              | `Shed (v, reason) -> shed t v reason)
            decisions)

let handle_resume t (cn : conn) (session_name : string) request_id =
  match Hashtbl.find_opt t.sessions session_name with
  | None ->
      refuse t cn "unknown-session"
        (Printf.sprintf "no session %S (resume %d)" session_name request_id)
  | Some sv ->
      let reply =
        if not sv.session.Session.spec.Wire.journaled then recovery_reply
        else
          let key = Session.media_key ~session:session_name ~request_id in
          if not (Store.has_media t.store key) then recovery_reply
          else begin
            let media = Store.media t.store key in
            let res = Run.resume sv.run ~resolve:(resolve t) ~media in
            Media.close media;
            Run.reply_of_resume res
          end
      in
      (if reply.Mechanism.response = recovery_reply.Mechanism.response then
         bump t "server/recovery-denials"
       else bump t "server/resume-served");
      if t.tracing then
        server_event t Event.Resume_serve ~conn:cn.id ~session:session_name
          (Printf.sprintf "request %d" request_id);
      push t cn.id (Wire.Reply { session = session_name; request_id; reply })

let handle_request t (cn : conn) ~now req =
  match req with
  | Wire.Hello _ -> push t cn.id (Wire.Welcome { server = t.cfg.server_name })
  | Wire.Open_session spec ->
      if draining t then refuse t cn "draining" "server is draining"
      else if not (Session.valid_name spec.Wire.session) then
        refuse t cn "bad-session" (Printf.sprintf "bad session name %S" spec.Wire.session)
      else (
        match Hashtbl.find_opt t.sessions spec.Wire.session with
        | Some { session = existing; _ }
          when Session.spec_equal existing.Session.spec spec ->
            push t cn.id (Wire.Session_opened { session = spec.Wire.session })
        | Some _ ->
            refuse t cn "session-exists"
              (Printf.sprintf "session %S exists with a different config" spec.Wire.session)
        | None ->
            let s = Session.create spec in
            ignore (serve_session t s);
            Session.save t.store s;
            server_event t Event.Session_open ~conn:cn.id ~session:spec.Wire.session "";
            bump t "server/sessions";
            push t cn.id (Wire.Session_opened { session = spec.Wire.session }))
  | Wire.Enforce e -> handle_enforce t cn ~now e
  | Wire.Resume { session; request_id } -> handle_resume t cn session request_id
  | Wire.Stats -> push t cn.id (Wire.Stats_reply { body = stats_json t })
  | Wire.Drain ->
      if not (draining t) then begin
        Admission.drain t.queue;
        server_event t Event.Drain ~conn:cn.id ~session:"" "";
        bump t "server/drains"
      end;
      push t cn.id (Wire.Draining { outstanding = Admission.length t.queue })

let drain t ~now:_ =
  if not (draining t) then begin
    Admission.drain t.queue;
    server_event t Event.Drain ~conn:(-1) ~session:"" "sigterm";
    bump t "server/drains"
  end

(* ---------- execution ---------- *)

(* A journaled request runs under its session's config plus a journal on
   the request's own store medium. A scripted kill also drops the guard,
   which Run refuses beside a kill: no supervisor retries a dying
   process. *)
let journaled_config t b (e : Wire.enforce) ~kill_at =
  let key =
    Session.media_key ~session:(Session.name b.served.session) ~request_id:e.Wire.request_id
  in
  let journal =
    {
      Run.media = `Media (fun () -> Store.media t.store key);
      snapshot_every = Runner.default_snapshot_every;
      program_ref = e.Wire.program;
      kill_at;
    }
  in
  let run = b.served.run in
  {
    run with
    Run.journal = Some journal;
    guard = (match kill_at with None -> run.Run.guard | Some _ -> None);
  }

(* One queue entry. A journaled session's run goes through Run on the
   request's own medium, where the scripted kill (if armed) fires; an
   unjournaled one replays a cache hit or runs the session's guarded
   mechanism. Unless a kill strikes, the reply is total into E ∪ F
   whatever the monitor does. *)
let execute_one t (w : work) inputs =
  let b = w.w_binding in
  let session = b.served.session in
  let kill_at = t.kill_at in
  t.kill_at <- None;
  if session.Session.spec.Wire.journaled then
    (* An armed kill strikes during the run (Died) unless the run ends
       before the kill's box. *)
    try Run.run (journaled_config t b w.w_enforce ~kill_at) b.prog.graph inputs
    with Run.Killed _ -> raise Died
  else if Option.is_some kill_at then
    (* Process death before anything durable happened: the run simply
       never existed. Resume later finds no journal -> Λ/recovery. *)
    raise Died
  else
    let cached =
      match w.w_ckey with
      | Some key -> Cache.find session.Session.cache key
      | None -> None
    in
    match cached with
    | Some reply -> reply
    | None ->
        let reply = Mechanism.respond b.mech inputs in
        (match w.w_ckey with
        | Some key when cacheable reply -> Cache.store session.Session.cache key reply
        | _ -> ());
        reply

(* Count the reply by kind. Returns whether the guard gave up on the run
   (Λ/degraded), the outcome that trips the session's breaker. *)
let classify t (reply : Mechanism.reply) =
  match reply.Mechanism.response with
  | Mechanism.Granted _ ->
      bump t "server/granted";
      false
  | Mechanism.Denied n ->
      let degraded = n = Guard.degraded_notice in
      if degraded || n = Guard.recovery_notice then bump t "server/fault-denials"
      else if n = Wire.overload_notice then bump t "server/overload-denials"
      else bump t "server/monitor-denials";
      degraded
  | Mechanism.Hung | Mechanism.Failed _ ->
      bump t "server/breaches";
      false

let execute t ~now =
  let budget = t.cfg.exec_budget in
  let batch = ref [] in
  let n = ref 0 in
  let continue = ref true in
  while !continue && !n < budget do
    match Admission.pop t.queue ~now with
    | `Empty -> continue := false
    | `Expired e ->
        shed t e Admission.Expired;
        Stdlib.incr n
    | `Run e ->
        let w = e.Admission.work in
        if Session.breaker_open w.w_binding.served.session ~now then begin
          shed t e Admission.Queue_full;
          bump t "server/breaker-sheds"
        end
        else batch := e :: !batch;
        Stdlib.incr n
  done;
  let batch = Array.of_list (List.rev !batch) in
  let nb = Array.length batch in
  if nb > 0 then begin
    let run i =
      let e = batch.(i) in
      execute_one t e.Admission.work e.Admission.work.w_enforce.Wire.inputs
    in
    Metrics.set (Metrics.gauge t.ms "server/pool-in-flight") nb;
    let results =
      if nb = 1 || t.cfg.jobs <= 1 then Array.init nb run
      else begin
        let rs, _pstats = Pool.map ~jobs:t.cfg.jobs nb run in
        (* Only the deterministic part of the pool telemetry lands in the
           registry; steals/idle probes are scheduling noise (stderr). *)
        bump ~by:nb t "server/pool-tasks";
        rs
      end
    in
    Metrics.set (Metrics.gauge t.ms "server/pool-in-flight") 0;
    Array.iteri
      (fun i reply ->
        let e = batch.(i) in
        let w = e.Admission.work in
        let sv = w.w_binding.served in
        let degraded = classify t reply in
        Session.record_outcome sv.session ~now ~threshold:t.cfg.breaker_threshold
          ~cooldown:t.cfg.breaker_cooldown ~degraded;
        bump t "server/served";
        (match reply.Mechanism.response with
        | Mechanism.Granted _ -> sbump t sv.s_granted
        | Mechanism.Denied _ | Mechanism.Hung | Mechanism.Failed _ -> ());
        let latency_us =
          let us = int_of_float ((now -. w.w_arrival) *. 1e6) in
          if us < 0 then 0 else us
        in
        Metrics.observe (Metrics.histogram t.ms "server/latency-us") latency_us;
        Metrics.observe (resolve_series Metrics.histogram t sv.s_latency) latency_us;
        sync_cache_counters t sv;
        Metrics.observe (Metrics.histogram t.ms "server/exec-steps")
          reply.Mechanism.steps;
        if t.tracing then
          server_event t Event.Serve ~conn:e.Admission.conn ~session:e.Admission.session
            (Printf.sprintf "request %d" e.Admission.request_id);
        push t e.Admission.conn
          (Wire.Reply
             {
               session = e.Admission.session;
               request_id = e.Admission.request_id;
               reply;
             }))
      results
  end

let parse_conn t (cn : conn) ~now =
  let continue = ref true in
  while !continue && cn.alive && not cn.closing do
    match Wire.Stream.next cn.stream with
    | `Frame payload -> (
        match Wire.decode_request payload with
        | Ok req -> handle_request t cn ~now req
        | Error e ->
            bump t "server/wire-decode-errors";
            refuse t cn "proto" (Codec.error_message e))
    | `Await ->
        (match Wire.Stream.stalled_since cn.stream with
        | Some t0
          when Wire.Stream.pending_bytes cn.stream > 0
               && now -. t0 > t.cfg.frame_deadline ->
            refuse t cn "slow"
              (Printf.sprintf "frame stalled %.3fs" (now -. t0))
        | _ -> ());
        continue := false
    | `Corrupt e ->
        bump t "server/wire-decode-errors";
        refuse t cn "proto" (Codec.error_message e);
        continue := false
  done

(* Instantaneous state, published after every step so a scrape between
   steps reads the post-step truth. A session's breaker gauge registers at
   the first refresh after it opened, sessions opened since the last
   refresh in name order, so the registration order (and with it every
   rendering) is deterministic. *)
let refresh_gauges t ~now =
  Metrics.set (Metrics.gauge t.ms "server/queue-now") (Admission.length t.queue);
  Metrics.set (Metrics.gauge t.ms "server/open-conns") (Hashtbl.length t.conns);
  Metrics.set
    (Metrics.gauge t.ms "server/open-sessions")
    (Hashtbl.length t.sessions);
  (match t.ungauged with
  | [] -> ()
  | opened ->
      let fresh =
        List.sort
          (fun a b -> compare (Session.name a.session) (Session.name b.session))
          opened
      in
      List.iter (fun sv -> ignore (resolve_series Metrics.gauge t sv.s_breaker)) fresh;
      t.gauged <- List.rev_append fresh t.gauged;
      t.ungauged <- []);
  let open_breakers =
    List.fold_left
      (fun acc sv ->
        let b = if Session.breaker_open sv.session ~now then 1 else 0 in
        Metrics.set (resolve_series Metrics.gauge t sv.s_breaker) b;
        acc + b)
      0 t.gauged
  in
  Metrics.set (Metrics.gauge t.ms "server/breakers-open") open_breakers

let step t ~now =
  let ids =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.conns [])
  in
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.conns id with
      | Some cn -> parse_conn t cn ~now
      | None -> ())
    ids;
  execute t ~now;
  refresh_gauges t ~now

(* ---------- health ---------- *)

type health = {
  ok : bool;
  status : string;
  draining : bool;
  drained : bool;
  queue : int;
  capacity : int;
  sessions : int;
  conns : int;
  breakers_open : int;
  recovery_refusals : int;
}

let health t ~now =
  let is_draining = draining t and is_drained = drained t in
  let sessions = Hashtbl.length t.sessions in
  let breakers_open =
    Hashtbl.fold
      (fun _ sv acc -> if Session.breaker_open sv.session ~now then acc + 1 else acc)
      t.sessions 0
  in
  let recovery_refusals = Metrics.counter_value t.ms "server/recovery-refusals" in
  let saturated = sessions > 0 && breakers_open = sessions in
  let status =
    if is_drained then "drained"
    else if is_draining then "draining"
    else if saturated then "breakers-saturated"
    else if recovery_refusals > 0 then "recovery-refusals"
    else "ok"
  in
  {
    (* Refused journals are already answered fail-secure (Λ/recovery per
       request); they mark the health detail, not liveness. *)
    ok = (status = "ok" || status = "recovery-refusals");
    status;
    draining = is_draining;
    drained = is_drained;
    queue = Admission.length t.queue;
    capacity = t.cfg.capacity;
    sessions;
    conns = Hashtbl.length t.conns;
    breakers_open;
    recovery_refusals;
  }

let health_json (h : health) =
  Json.render
    (Json.Obj
       [
         ("ok", Json.Bool h.ok);
         ("status", Json.String h.status);
         ("draining", Json.Bool h.draining);
         ("drained", Json.Bool h.drained);
         ("queue", Json.Int h.queue);
         ("capacity", Json.Int h.capacity);
         ("sessions", Json.Int h.sessions);
         ("conns", Json.Int h.conns);
         ("breakers_open", Json.Int h.breakers_open);
         ("recovery_refusals", Json.Int h.recovery_refusals);
       ])
