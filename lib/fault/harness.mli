(** The one skeleton behind every chaos sweep.

    A sweep ({!Sweep}, {!Crash}, [Secpol_dist.Sweep],
    [Secpol_server.Chaos]) is four things: a counter vocabulary, a
    [run_task] that classifies the runs of one task into those counters
    and notes findings, a fixed task list, and the title, params and text
    rows of its report. This module owns everything else:

    - the formatters and case builders every sweep shares;
    - {!run}: one fresh {!Metrics} shard per task with the vocabulary
      pre-registered in order, the fan-out through the engine pool, the
      [engine_tasks] counter, the in-order merge and the findings cap;
    - the one {!report}, rendered as text or JSON byte-identically
      whatever [jobs] is;
    - {!count}, the checked counter lookup that gates are written
      against.

    Adding a sweep is one file: its vocabulary, its [run_task], its task
    list and a {!view}. *)

module Json = Secpol_staticflow.Lint.Json
module Metrics = Secpol_trace.Metrics

(** {1 Formatters and case builders} *)

val show_input : Secpol_core.Value.t array -> string
(** [(v0,v1,...)]. *)

val show_response : Secpol_core.Mechanism.response -> string

val show_reply : Secpol_core.Mechanism.reply -> string
(** Response plus step count. *)

val policies_of_arity : int -> Secpol_core.Policy.t list
(** All [allow(J)] policies over [arity] inputs: one per subset of
    [{0..arity-1}], enumerated through the bitset representation. *)

val cases :
  Secpol_corpus.Paper_programs.entry list ->
  (Secpol_corpus.Paper_programs.entry * Secpol_core.Policy.t) list
(** Every entry paired with every [allow(J)] policy over its inputs,
    entry-major. *)

val spread : int -> 'a list -> 'a list
(** [spread k xs] is up to [k] elements spread evenly over [xs],
    endpoints first; all of [xs] when it has at most [k]. *)

(** {1 Running a sweep} *)

type finding = {
  subject : string list;  (** joined with [" / "] in the text rendering *)
  fields : (string * Json.value) list;
      (** JSON object fields of the finding, [detail] appended last *)
  detail : string;
}

type series = Counter of string | Histogram of string

type ctx = {
  metrics : Metrics.t;
      (** the task's shard, the vocabulary already registered; series a
          task registers later render after [engine_tasks] *)
  note : finding -> unit;  (** keeps the task's first {!max_findings} *)
}

type view = {
  title : string;  (** first line of the text rendering *)
  params : (string * Json.value) list;
      (** leading fields of the JSON document (seeds, mode, ...) *)
  rows : (string * string * string option) list;
      (** text rendering of the totals: counter name, display label,
          optional parenthetical note. Counters absent from [rows] still
          appear in the JSON totals. *)
  verdict_ok : string;
  verdict_fail : string;
}

type report = {
  view : view;
  metrics : Metrics.t;
      (** the vocabulary in order, then [engine_tasks], then any series
          the tasks registered themselves *)
  findings : finding list;  (** the first {!max_findings}, in task order *)
  ok : bool;  (** every counter named in [zero] is 0 *)
  pool : Secpol_engine.Pool.stats;
      (** scheduling telemetry (steals, idle probes), deliberately absent
          from {!pp} and {!to_json} *)
}

val max_findings : int

val run :
  jobs:int ->
  stats:series list ->
  zero:string list ->
  describe:((string -> int) -> view) ->
  'task list ->
  (ctx -> 'task -> unit) ->
  report
(** [run ~jobs ~stats ~zero ~describe tasks run_task] runs every task on
    its own shard through [Pool.map ~jobs], merges the shards in task
    order and counts the tasks as [engine_tasks]. [describe] receives the
    merged counter lookup (as {!count}) to title the report. The task
    list is fixed, so every output except [pool] is byte-identical at any
    [jobs]. [run_task] must touch no mutable state shared with other
    tasks except through domain-safe structures.
    @raise Invalid_argument if a name in [zero] is not a counter. *)

val count : report -> string -> int
(** A counter's merged value.
    @raise Invalid_argument on a name the sweep never registered as a
    counter, so a misspelt gate fails instead of reading 0. *)

(** {1 Rendering} *)

val compare_finding : finding -> finding -> int
(** Total order on findings: JSON fields compared structurally, then
    [detail]. The stable key both renderings sort by. *)

val pp : Format.formatter -> report -> unit
(** Title, one aligned line per row, [  ! subject: detail] per finding
    (sorted by {!compare_finding}), then the verdict line.
    @raise Invalid_argument if a row names no counter. *)

val to_json : report -> Json.value
(** [params] fields, a ["totals"] object with every counter (registration
    order), the sorted ["findings"], the full ["metrics"] rendering
    (histograms included), and ["ok"]. *)

val to_json_string : report -> string
