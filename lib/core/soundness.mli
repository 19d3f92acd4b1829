(** Soundness: does the mechanism enforce the policy?

    [M] is sound for policy [I] iff [M] factors through [I]: there is an
    [M'] with [M(a) = M'(I(a))] for all [a]. Equivalently — and this is the
    executable characterization used here — [M] is constant on every
    equivalence class of the relation [a ~ b <=> I(a) = I(b)].

    Over a finite input space this is decidable by exhaustive partition-and-
    compare, which is exactly what {!check} does. What counts as "[M(a)]" is
    the user-visible observable, so the {!Program.view} matters: a mechanism
    can be sound when only values are observable and unsound once running
    time is part of the output (Theorems 3 vs 3').

    Violation notices are part of [M]'s output: a mechanism whose {e choice
    of notice} (or whose decision to emit one) depends on disallowed data is
    unsound — this is how the model captures leakage-through-error-message
    (Example 4) and negative inference.

    {b The oracle}: the point-by-point {!check} is the reference the
    partition-refined check in [Secpol_engine.Analyze] is gated against,
    and it is what [Analyze]'s [Brute] algorithm runs. Application code
    measures through [Secpol.Analyze]; tests and the bench name this
    module directly, as the oracle. *)

type config = {
  view : Program.view;  (** is running time observable? *)
  identify_violations : bool;
      (** when true, all violation notices are considered equal before
          comparing (the convention used for completeness comparisons); for
          soundness proper this should be [false] unless the mechanism emits
          a single notice anyway *)
}

val default : config
(** [{ view = `Value; identify_violations = false }]. *)

val timed : config

val canonicalize : config -> Program.Obs.t -> Program.Obs.t
(** The observable actually compared by {!check}: identity unless
    [identify_violations], which collapses every violation notice to one.
    Exposed so the refined check in [Secpol_engine.Analyze] compares
    exactly what the sequential check compares. *)

type witness = {
  input_a : Value.t array;
  input_b : Value.t array;  (** policy-equivalent to [input_a] *)
  obs_a : Program.Obs.t;
  obs_b : Program.Obs.t;  (** differs from [obs_a]: the leak *)
}

type verdict = Sound | Unsound of witness

val check : ?config:config -> Policy.t -> Mechanism.t -> Space.t -> verdict
(** Exhaustive soundness check over the space. [Sound] is a proof (for this
    space); [Unsound] carries two policy-equivalent inputs that the user can
    tell apart by watching the mechanism. *)

val is_sound : ?config:config -> Policy.t -> Mechanism.t -> Space.t -> bool

val pp_verdict : Format.formatter -> verdict -> unit
