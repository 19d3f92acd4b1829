(** The maximal sound protection mechanism, constructed by brute force.

    Theorem 2: for any [Q] and [I] a maximal sound mechanism exists — the
    union of all sound mechanisms. Theorem 4: no effective procedure builds
    it from an arbitrary ([Q], [I]); indeed it need not even be recursive
    (Ruzzo). Neither theorem forbids computing it over a {e finite} input
    space, where "is [Q] constant on this policy class?" is decidable by
    enumeration. This module does exactly that, yielding the yardstick
    against which every practical mechanism's completeness is measured.

    Construction: partition the space by [I]-image; on a class where [Q]'s
    observable is constant, answer [Q(a)]; elsewhere answer a violation
    notice. The result is sound (it factors through the image by
    construction) and grants wherever {e any} sound mechanism could: a sound
    [M] granting at [a] must grant [Q(a)] on the whole class of [a], which
    forces [Q] constant there.

    {b The oracle}: this enumerate-everything builder is the reference the
    partition-refined path ([Secpol_engine.Analyze] over {!Refine}) is
    gated against, and it is what [Analyze]'s [Brute] algorithm runs.
    Application code measures through [Secpol.Analyze]; tests and the
    bench name this module directly, as the oracle. *)

type entry = Serve of Program.outcome * Program.Obs.t | Mixed
    (** Per-class verdict: serve [Q]'s common outcome, or deny a mixed
        class. *)

val table :
  Program.view -> Policy.t -> Program.t -> Space.t -> (Value.t, entry) Hashtbl.t
(** The class table underlying {!build}: policy image -> verdict, keeping
    the first-enumerated outcome of each constant class. The refined
    table of [Secpol_engine.Analyze] must equal it entry for entry. *)

val of_table : Policy.t -> Program.t -> (Value.t, entry) Hashtbl.t -> Mechanism.t
(** The maximal mechanism answering from a precomputed class table. *)

val classes_of_table : (Value.t, entry) Hashtbl.t -> int * int
(** [(constant_classes, total_classes)] of a class table. *)

val build :
  ?view:Program.view -> Policy.t -> Program.t -> Space.t -> Mechanism.t
(** [build ~view i q space] precomputes the class table (one run of [Q] per
    point of the space) and returns the maximal sound mechanism. With
    [`Timed], [Q]'s step count must also be constant on a class for the
    class to be granted — the stricter notion matching an observable clock.
    The returned mechanism only answers on inputs of [space].

    The mechanism replies in O(1) per call after the precomputation. *)
