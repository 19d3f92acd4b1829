(** Program transformations that change what surveillance can see.

    Section 4's key insight: surveillance applied to a {e functionally
    equivalent} rewriting [Q'] of [Q] is still a sound protection mechanism
    for [Q] — and may be strictly more or strictly less complete than
    surveillance on [Q] itself (Examples 7 and 8). Theorem 4 says choosing
    the best rewriting is undecidable, so these are heuristics a user
    composes, not an optimizer.

    Three transforms are provided:

    - {!ite}: the if-then-else transform. A branch whose arms are loop-free
      is replaced by straight-line code computing every assigned variable
      with a branchless select ([Expr.Cond]): control dependence on the test
      becomes data dependence. With [~simplify:true], selects whose arms
      coincide collapse ([Cond (p, e, e) = e]) — this is how Example 7's
      program becomes surveillance-transparent.
    - {!predicate_loops}: the while transform, realized as bounded predicated
      unrolling. Each of [bound] copies of the body executes unconditionally
      with every assignment guarded by a running guard register
      [g := g AND test]; assignments become [v := Cond (g = 1, e, v)]. The
      result is functionally equivalent whenever the loop exits within
      [bound] iterations (check with {!equivalent_on}); past the bound the
      transformed program falls into a deliberate infinite loop so that it
      never reports a {e wrong} value.
    - {!sink_into_branches}: the duplication transform of Example 9. Code
      following an [If] is copied into both arms, so that after compilation
      (and {!split_halts}) each path owns its final assignments and halt box
      — which is what lets a per-halt static mechanism serve the clean path
      while denying only the dirty one. *)

module Ast = Secpol_flowgraph.Ast
module Graph = Secpol_flowgraph.Graph

val symbolic_effect :
  Ast.t -> Secpol_flowgraph.Expr.t Secpol_flowgraph.Var.Map.t
(** The symbolic effect of a loop-free statement: for each variable it
    assigns, the expression over the pre-state that it ends up holding.
    Control joins become branchless selects. {!ite}, {!predicate_loops} and
    {!Graph_ite.rewrite} all build their straight-line code from it.
    @raise Invalid_argument on a loop, or when an expression's unfolded
    tree exceeds 20,000 nodes. Forward substitution grows geometrically
    across unrolled loop copies and nested selects, so the transform is
    refused rather than left to exhaust memory. *)

val ite : ?simplify:bool -> Ast.prog -> Ast.prog
(** Apply the if-then-else transform to every [If] whose branches are
    loop-free (innermost first). [simplify] (default [true]) folds constants
    and collapses equal-armed selects afterwards.
    @raise Invalid_argument if a branch's effect exceeds the node budget
    of {!symbolic_effect}. *)

val predicate_loops : ?residual:bool -> bound:int -> Ast.prog -> Ast.prog
(** Apply the while transform: replace every [While] (innermost first,
    provided its body is loop-free after inner transformation) by [bound]
    predicated copies of its body. The program's register count grows by
    one guard per loop.

    With [residual] (the default) a trailing [while guard do skip] diverges
    when the bound was insufficient, so the transform never answers wrongly
    — but that residual decision re-taints the program counter with the
    loop test, defeating the transform's purpose under surveillance. Pass
    [~residual:false] {e only} after establishing (e.g. with
    {!equivalent_on}) that [bound] covers every iteration count the input
    space can produce; the result is then branch-free straight-line code
    and surveillance sees no control dependence on the test at all.
    @raise Invalid_argument if [bound < 0], or if a loop body's effect
    exceeds the node budget of {!symbolic_effect}. *)

val sink_into_branches : Ast.prog -> Ast.prog
(** Duplicate statements following each [If] into both of its arms, making
    every post-branch computation path-private. *)

val split_halts : Graph.t -> Graph.t
(** Give every predecessor of a shared halt box its own copy, so per-halt
    static checks become per-path checks. *)

val equivalent_on :
  ?fuel:int ->
  Ast.prog ->
  Ast.prog ->
  Secpol_core.Space.t ->
  (unit, Secpol_core.Value.t array) result
(** Check functional equivalence (output values; not timing) of two
    structured programs over a finite space; the error carries a
    distinguishing input. Transforms deliberately change step counts, so
    equivalence is the untimed notion — which is also all that soundness of
    surveillance-after-transform requires when time is unobservable. *)
