(** Partition refinement over the I-kernel: the kernel only.

    The brute-force yardstick ({!Maximal.table}, {!Soundness.check}) runs
    [Q] (or the mechanism) on every point of the space. Refinement gets
    the same answers from far fewer runs: partition the space by policy
    image first — a pure projection, no interpreter run — then refine each
    class member-by-member in enumeration order, stopping at the first
    observable split. A class whose members all agree is constant
    (servable); one that splits is mixed; nothing after the split needs
    evaluating.

    The one driver of this kernel is [Secpol_engine.Analyze], which runs
    one class per engine pool task. Every result is {b bit-identical} to
    the brute-force oracle's: the class table keeps the first-enumerated
    outcome of each constant class, and the granted/total tallies match
    count for count (see [test/test_refine.ml] and the bench gate). *)

type partition = {
  points : Value.t array array;
      (** the whole space, in {!Space.enumerate} (lexicographic) order *)
  keys : Value.t array;  (** class keys ([I(a)]), in first-member order *)
  members : int array array;
      (** [members.(c)] = indices into [points], ascending *)
}

type stats = {
  space_size : int;
  class_count : int;
  runs : int;  (** evaluations actually performed *)
  saved : int;  (** [space_size - runs]: evaluations the refinement skipped *)
}

val partition : Policy.t -> Space.t -> partition
(** Group the space by policy image. Classes are numbered in order of
    first appearance, members listed in enumeration order — the invariant
    every bit-identity argument below rests on. *)

val refine_class :
  view:Program.view ->
  run:(Value.t array -> Program.outcome) ->
  partition ->
  int ->
  Maximal.entry * int
(** [refine_class ~view ~run pt c] refines class [c]: runs the first
    member, then each further member until one disagrees ([Mixed]) or the
    class is exhausted ([Serve] of the first member's outcome). Returns
    the entry and the number of runs spent. [Secpol_engine.Analyze] runs
    it as one pool task per class. *)

val grant_count_of_table :
  partition -> (Value.t, Maximal.entry) Hashtbl.t -> int * int
(** [(granted, total)] points of the maximal mechanism, read off the class
    table without running the mechanism: a class counts iff it serves a
    proper value. Equals [Completeness.grant_count] of the built mechanism
    under either view. *)

val table_fingerprint : (Value.t, Maximal.entry) Hashtbl.t -> string
(** Canonical rendering of a class table (entries sorted by key, outcomes
    pinned through the [`Timed] observable) for differential gates: two
    tables fingerprint equal iff they answer identically as mechanisms and
    tally identically as class tables. *)

val pp_stats : Format.formatter -> stats -> unit
