(** Sound verdict memoization.

    The soundness theorem (DESIGN §3) says a sound mechanism [M] factors
    through the policy filter: [M = M' ∘ I], so [M] is constant on every
    [I]-equivalence class. That makes caching verdicts under the key
    [(program digest, config tag, I(a))] {e semantically justified}: the
    cached reply {e is} [M'(I(a))], not a lossy approximation.

    Two caveats the implementation honours:

    - The cache serves the {e class representative's full reply}, step count
      included. For mechanisms sound at the [`Value] view only, raw step
      counts may vary within a class; replaying the representative's reply
      makes the memoized mechanism constant per class under {e both} views,
      and agree with the direct mechanism at the view it is sound for.
    - Memoizing an {b unsound} mechanism would fuse inputs the mechanism
      actually distinguishes — a wrong answer, not a slow one. Unsound and
      raw-[Q] runs must bypass the cache: use {!checked} when soundness is
      not already known, or plain {!exact} keys (full input vector — always
      sound, still deduplicates repeated inputs). *)

val mechanism :
  cache:Cache.t ->
  digest:string ->
  tag:string ->
  policy:Secpol_core.Policy.t ->
  Secpol_core.Mechanism.t ->
  Secpol_core.Mechanism.t
(** [mechanism ~cache ~digest ~tag ~policy m] memoizes [m] on the
    [I]-projection [Policy.image policy a]. {b Caller asserts [m] is sound
    for [policy]}; use {!checked} otherwise. [tag] must fingerprint
    everything else the verdict depends on (mode, fuel, policy name, ...). *)

val exact :
  cache:Cache.t ->
  digest:string ->
  tag:string ->
  Secpol_core.Mechanism.t ->
  Secpol_core.Mechanism.t
(** Memoize on the full input vector — sound for any mechanism (the key
    determines the input), useful to deduplicate repeated inputs across
    seeds. *)

val checked :
  ?config:Secpol_core.Soundness.config ->
  cache:Cache.t ->
  digest:string ->
  tag:string ->
  policy:Secpol_core.Policy.t ->
  space:Secpol_core.Space.t ->
  Secpol_core.Mechanism.t ->
  Secpol_core.Mechanism.t * Secpol_core.Soundness.verdict
(** [checked] first decides soundness of [m] for [policy] over [space]
    ({!Analyze.soundness} on one domain — exhaustive, meant for the small
    corpus spaces). [Sound] yields the
    [I]-memoized mechanism; [Unsound _] returns [m] untouched — the bypass
    path. *)
