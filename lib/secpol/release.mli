(** The packaged release decision.

    Given a program, a policy, and the finite input space the decision
    should be exhaustive over, pick the cheapest enforcement that is sound
    and maximally complete among the routes the library knows:

    + {b Ship_bare} — the program certifies (Section 5): release it
      unmodified, enforcement costs nothing at run time.
    + {b Guarded} — whole-program certification fails, but after
      duplication and halt-splitting every surviving halt box is clean
      (Example 9): release the guarded flowchart, still no run-time
      bookkeeping, violations only on the dirty paths.
    + {b Monitored} — fall back to a dynamic mechanism: the Theorem-1 join
      of plain surveillance with the bounded transform search's sound
      candidates, so the monitor is at least as complete as plain
      surveillance and often better.
    + {b Refuse} — nothing sound serves any input (the brute-force maximal
      mechanism is empty): the policy, not the machinery, says no.

    Every returned mechanism has been exhaustively verified sound on the
    given space, and the report carries the completeness story so callers
    can see what each rejected cheaper route would have cost. *)

type route =
  | Ship_bare of Secpol_core.Program.t
  | Guarded of Secpol_flowgraph.Graph.t * Secpol_core.Mechanism.t
  | Monitored of Secpol_core.Mechanism.t
  | Refuse

type report = {
  route : route;
  mechanism : Secpol_core.Mechanism.t;
      (** the decision as a mechanism, whatever the route *)
  completeness : float;  (** fraction of the space the decision serves *)
  maximal : float;  (** what the best sound mechanism could serve *)
  certified : bool;
  notes : string list;  (** human-readable trail of the decision *)
}

val plan :
  ?search_depth:int ->
  policy:Secpol_core.Policy.t ->
  space:Secpol_core.Space.t ->
  Secpol_flowgraph.Ast.prog ->
  report
(** @raise Invalid_argument on a non-[allow] policy (the enforcement
    constructions need the allow form; check filter policies with
    {!Secpol_engine.Analyze} directly). *)

val route_name : route -> string
