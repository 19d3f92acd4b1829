(** Bounded mechanism synthesis by transformation.

    Section 4: "This example is just an instance of a general way to
    generate many different protection mechanisms: Given a program Q,
    transform it to Q' where Q and Q' are functionally equivalent. Then
    apply the surveillance protection mechanism to Q'." And: "Whether to
    apply a transform or not is not necessarily a clearcut decision" —
    indeed Theorem 4 makes the optimal choice uncomputable.

    This module is the honest version of that idea: enumerate bounded
    sequences of the library's transforms, keep the candidates that remain
    functionally equivalent on the experiment space, attach the
    surveillance mechanism (and the per-halt static guard) to each, verify
    soundness exhaustively, and return the join of every surviving
    candidate — by Theorem 1 itself a sound mechanism at least as complete
    as each. The result provably sits between plain surveillance and the
    brute-force maximal mechanism; how much of the gap it closes is
    measured per program (experiment E17).

    Everything here is exhaustive over the provided finite space, so the
    output is trustworthy-by-construction; what Theorem 4 forbids is doing
    this uniformly and effectively over unbounded domains, not per finite
    experiment. *)

module Ast = Secpol_flowgraph.Ast

type candidate = {
  label : string;  (** the transform sequence, e.g. ["dup;ite"] *)
  mechanism : Secpol_core.Mechanism.t;
  ratio : float;  (** completeness on the search space *)
}

type report = {
  best : Secpol_core.Mechanism.t;  (** join of all sound candidates *)
  best_ratio : float;
  candidates : candidate list;  (** every sound candidate, best ratio first *)
  maximal_ratio : float;  (** the Theorem-2 yardstick, for the gap *)
  discarded : (string * string) list;
      (** transform sequences dropped, with the reason (inequivalent on
          the space, measured unsound, or a flowchart rewrite refused by
          the transforms' node budget) *)
}

val search :
  ?max_depth:int ->
  ?while_bound:int ->
  policy:Secpol_core.Policy.t ->
  space:Secpol_core.Space.t ->
  Ast.prog ->
  report
(** [search ~policy ~space prog] explores transform sequences up to
    [max_depth] (default 2) drawn from: the if-then-else transform (with
    and without simplification), assignment duplication, and predicated
    loop unrolling with [while_bound] (default 4, checked for equivalence
    before use). Every candidate mechanism is verified sound on [space];
    unsound or inequivalent candidates land in [discarded] rather than in
    the result.
    @raise Invalid_argument on a non-[allow] policy. *)
