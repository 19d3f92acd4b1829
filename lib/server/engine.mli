(** The enforcement service engine: sessions, admission, execution.

    Transport-agnostic and clock-explicit: connections are integer ids,
    bytes go in through {!feed} and come out through {!output}, and every
    entry point takes [~now] — the daemon passes a monotonic wall clock,
    the chaos sweep and the QCheck properties pass a virtual clock and
    replay overloads, slowloris stalls and deadline expiries
    deterministically.

    Fail-secure contract: every admitted enforce request is eventually
    answered with the monitor's own verdict or with a violation notice in
    [F] — [Λ/overload] for shed, expired and drain-refused requests,
    [Λ/recovery] for unobservable crashed runs — never with silence and
    never with a grant the clean monitor would not issue. Malformed,
    foreign-version and slow-written frames cost the sender its
    connection ({!Wire.Refused}, then close), never the server.

    Layers: each session is one {!Secpol.Run.config} (its policy, mode,
    fuel and guard, with the engine's hook and sink), and every request
    runs through {!Secpol.Run.mechanism} of it; a journaled request adds
    a {!Secpol.Run.journal} on its own {!Store.media} key. The engine
    composes no layer itself, so {!Secpol.Run}'s refusal table is the
    service's too.

    Crash-restart: {!create} on a non-empty {!Store.t} first rebuilds
    every session from its manifest, then re-runs recovery
    ({!Secpol.Run.resume}) over every journaled request medium, so
    interrupted runs complete (or degrade to [Λ/recovery]) before the
    first reconnecting client asks via {!Wire.Resume}. *)

module Sink = Secpol_trace.Sink
module Metrics = Secpol_trace.Metrics
module Hook = Secpol_flowgraph.Hook

exception Died
(** Raised out of {!step} when a scripted kill ({!kill_next}) strikes
    mid-request — the in-process stand-in for process death, and the
    engine's form of {!Secpol.Run.Killed}. The engine must be discarded;
    build a new one on the same store to model the restart. *)

type config = {
  server_name : string;
  capacity : int;  (** admission queue bound *)
  shed_seed : int;  (** seeds the shedding tie-break draw *)
  default_deadline_us : int;  (** for requests with a negative deadline *)
  frame_deadline : float;  (** seconds a partial frame may stall (slowloris) *)
  exec_budget : int;  (** queue entries executed per {!step} *)
  jobs : int;  (** domains for batch execution (1 = sequential) *)
  breaker_threshold : int;  (** consecutive degraded outcomes that trip it *)
  breaker_cooldown : float;  (** seconds the breaker stays open *)
  session_cache : bool;
      (** cross-request verdict caching in unjournaled sessions: keyed on
          the sound {!Secpol_engine.Memo} I-projection when the session's
          mechanism proves timed-view sound over the program's corpus
          space {e and} the request's inputs lie inside that space (the
          proof quantifies over nothing else), on the full input vector
          otherwise — either way a hit replays a bit-identical earlier
          verdict. Default [true]. *)
  ikey_space_limit : int;
      (** largest corpus-space size the engine will exhaustively prove
          timed-view soundness over on the serving loop (once per
          session x program); bigger or unsized spaces skip the proof and
          key on exact inputs, so a huge space can never stall the select
          loop. Default 4096. *)
  hook : Hook.t;  (** interpreter fault hook (tests and chaos only) *)
}

val default_config : config

type t

val create :
  ?config:config -> ?sink:Sink.t -> ?metrics:Metrics.t -> store:Store.t -> now:float -> unit -> t

val config : t -> config
val metrics : t -> Metrics.t
val stats_json : t -> string

(** {1 Health}

    The /healthz truth: [ok] iff the service is accepting and serving
    (not draining, breakers not saturated). Recovery refusals left over
    from a crash-restart are reported — every affected request is already
    answered fail-secure with [Λ/recovery], so they mark [status], not
    [ok]. *)

type health = {
  ok : bool;
  status : string;
      (** ["ok"] | ["recovery-refusals"] | ["breakers-saturated"] |
          ["draining"] | ["drained"] *)
  draining : bool;
  drained : bool;
  queue : int;
  capacity : int;
  sessions : int;
  conns : int;
  breakers_open : int;
  recovery_refusals : int;
}

val health : t -> now:float -> health
val health_json : health -> string

val open_conn : t -> now:float -> int

val feed : t -> conn:int -> now:float -> string -> unit
(** Bytes received from the client; parsed at the next {!step}. *)

val close_conn : t -> conn:int -> unit
(** Client hung up. Queued requests from the connection still execute
    (their journals complete) — only the reply bytes are dropped. *)

val step : t -> now:float -> unit
(** One scheduling round: parse frames on every live connection (id
    order), dispatch messages, expire slow writers, then execute up to
    [exec_budget] queued requests — through the engine pool when
    [jobs > 1].
    @raise Died if a scripted kill struck. *)

val output : t -> conn:int -> string
(** Drain the connection's pending output bytes. *)

val conn_closing : t -> conn:int -> bool
(** The engine refused the connection (protocol error or slowloris):
    flush {!output}, then close the transport. *)

val conn_alive : t -> conn:int -> bool

val drain : t -> now:float -> unit
(** Enter drain: refuse new requests (they are answered [Λ/overload]),
    keep executing the queue. Same as receiving {!Wire.Drain}. *)

val draining : t -> bool

val drained : t -> bool
(** Draining and the queue is empty — safe to stop. *)

val queue_length : t -> int

val kill_next : t -> at_box:int -> unit
(** Script the next executed request to die mid-run: a journaled run is
    killed after [at_box] journaled boxes (its {!Secpol.Run.journal}'s
    [kill_at], unguarded, whose {!Secpol.Run.Killed} surfaces as
    {!Died}), an unjournaled run dies before leaving any trace.
    @raise Invalid_argument if [at_box < 0]. *)
