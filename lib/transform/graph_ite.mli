(** The if-then-else transform directly on flowcharts.

    {!Transforms.ite} needs structured syntax; the paper's programs are
    arbitrary flowcharts. This pass finds {e diamonds} — a decision box
    whose two branches are straight assignment chains, privately owned
    (no edges jump into their middles), meeting again at the decision's
    immediate postdominator — and replaces each with branch-free code:
    every variable either branch assigns gets one [Expr.Cond] select, so
    control dependence on the test becomes data dependence, exactly as in
    Section 4. Degenerate diamonds (both edges straight to the join)
    disappear entirely, taking the test's taint with them.

    The pass iterates to a fixpoint, so nested diamonds collapse from the
    inside out. Cost: the rewritten region evaluates both branches' work
    on every run (the usual price of predication); functional behaviour is
    preserved exactly, which the property tests check against the plain
    interpreter. *)

val rewrite : ?simplify:bool -> Secpol_flowgraph.Graph.t -> Secpol_flowgraph.Graph.t
(** Collapse every recognizable diamond; [simplify] (default true) folds
    the synthesized selects, letting equal-armed diamonds (Example 7's
    shape) shed the test's taint entirely.
    @raise Invalid_argument if the graph contains violation halts (rewrite
    programs, not mechanisms), or if a select exceeds the node budget of
    {!Transforms.symbolic_effect}, which builds them. *)

val diamonds : Secpol_flowgraph.Graph.t -> int list
(** Indices of currently rewritable decision boxes (one fixpoint step's
    worth), mainly for tests and inspection. *)
