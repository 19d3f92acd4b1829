(** Named enforcement sessions and their durable manifests.

    A session is the unit of client configuration: an [allow(J)] policy,
    a monitor mode, a fuel budget, a guard retry budget, and whether runs
    are journaled. {!Engine} runs its requests under one
    {!Secpol.Run.config} built from these. Its manifest is persisted in the {!Store} (encoded
    with the {!Wire} codec itself) so a restarted server rebuilds every
    session before any client reconnects; its journaled runs live under
    the session's key prefix, one medium per request id — which also
    makes retried requests idempotent: the journal re-delivers the same
    verdict instead of re-executing.

    The session also carries the per-session circuit breaker: after
    [threshold] {e consecutive} degraded outcomes (the guard exhausting
    its retries — infrastructure failure, not policy denials) the breaker
    opens for [cooldown] seconds and every request is shed with
    [Λ/overload] without touching the faulty monitor; the first request
    after the cooldown is the half-open probe that closes it again or
    re-opens it. *)

type t = {
  spec : Wire.open_session;
  mutable consecutive_degraded : int;
  mutable open_until : float;  (** breaker open until this instant; [0.] = closed *)
  cache : Secpol_engine.Cache.t;
      (** cross-request verdict cache, keyed on the sound
          {!Secpol_engine.Memo} I-projection; bounded to
          {!cache_capacity} verdicts (LRU) because wire inputs choose
          the keys; dies with the session *)
}

val cache_capacity : int
(** Verdicts a session retains at most ([4096]); beyond it the least
    recently used is evicted and a repeat recomputes. *)

val create : Wire.open_session -> t

val name : t -> string

val spec_equal : Wire.open_session -> Wire.open_session -> bool

val valid_name : string -> bool
(** Safe as a store key component: nonempty, no ['/']. *)

(** {1 Store layout} *)

val manifest_prefix : string
(** All manifests live under this key prefix. *)

val manifest_key : string -> string

val media_key : session:string -> request_id:int -> string
(** The journal medium of one request. *)

val media_prefix : session:string -> string

val save : Store.t -> t -> unit

val load_all : Store.t -> t list
(** Rebuild every session whose manifest decodes, sorted by name.
    Undecodable manifests are skipped (the sessions they described
    degrade to [Λ/recovery] when resumed — fail-secure, not fail-stop). *)

(** {1 Circuit breaker} *)

val breaker_open : t -> now:float -> bool

val record_outcome :
  t -> now:float -> threshold:int -> cooldown:float -> degraded:bool -> unit
(** A degraded outcome counts toward the trip threshold and (re)opens the
    breaker once reached; any other outcome closes it and resets the
    count. *)
