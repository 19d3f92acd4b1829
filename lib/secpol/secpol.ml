(** The library under one roof.

    [Secpol] re-exports the model ({!Policy}, {!Mechanism}, {!Soundness},
    ...), the flowchart language ({!Ast}, {!Graph}, {!Compile}, ...), the
    enforcement constructions ({!Dynamic}, {!Certify}, {!Instrument}, ...)
    and the measuring apparatus, so applications need a single library
    dependency — and adds {!Release}, the packaged decision procedure for
    "how should this program be let out of the building under this
    policy?". *)

(* The basic model (paper Section 2). *)
module Value = Secpol_core.Value
module Iset = Secpol_core.Iset
module Notice = Secpol_core.Notice
module Space = Secpol_core.Space
module Program = Secpol_core.Program
module Policy = Secpol_core.Policy
module Policy_order = Secpol_core.Policy_order
module Mechanism = Secpol_core.Mechanism
module Soundness = Secpol_core.Soundness
module Completeness = Secpol_core.Completeness
module Maximal = Secpol_core.Maximal
module Refine = Secpol_core.Refine
module Integrity = Secpol_core.Integrity
module Lattice = Secpol_core.Lattice

(* The flowchart language (Section 3's programs). *)
module Var = Secpol_flowgraph.Var
module Expr = Secpol_flowgraph.Expr
module Ast = Secpol_flowgraph.Ast
module Graph = Secpol_flowgraph.Graph
module Compile = Secpol_flowgraph.Compile
module Interp = Secpol_flowgraph.Interp
module Graphalgo = Secpol_flowgraph.Graphalgo

(* Enforcement constructions. *)
module Dynamic = Secpol_taint.Dynamic
module Instrument = Secpol_taint.Instrument
module Certify = Secpol_staticflow.Certify
module Dataflow = Secpol_staticflow.Dataflow
module Lint = Secpol_staticflow.Lint
module Certifier = Secpol_staticflow.Certifier
module Halt_guard = Secpol_staticflow.Halt_guard
module Transforms = Secpol_transform.Transforms
module Graph_ite = Secpol_transform.Graph_ite
module Search = Secpol_transform.Search

(* The fail-secure runtime: fault plans, injection, supervision. *)
module Hook = Secpol_flowgraph.Hook
module Fault_plan = Secpol_fault.Plan
module Injector = Secpol_fault.Injector
module Guard = Secpol_fault.Guard
module Chaos = Secpol_fault.Sweep
module Crash = Secpol_fault.Crash
module Harness = Secpol_fault.Harness

(* Distributed enforcement: cooperating shard enforcers, the fail-secure
   merge, and their chaos sweep. *)
module Dist_msg = Secpol_dist.Msg
module Dist_net = Secpol_dist.Net
module Dist_plan = Secpol_dist.Plan
module Shard = Secpol_dist.Shard
module Coordinator = Secpol_dist.Coordinator
module Dist_chaos = Secpol_dist.Sweep

(* Durable runs and tracing. *)
module Media = Secpol_journal.Media
module Runner = Secpol_journal.Runner
module Sink = Secpol_trace.Sink
module Metrics = Secpol_trace.Metrics

(* The parallel enforcement engine and the unified run API. *)
module Pool = Secpol_engine.Pool
module Cache = Secpol_engine.Cache
module Memo = Secpol_engine.Memo
module Run = Run
module Static = Static
module Analyze = Secpol_engine.Analyze

(* Measurement. *)
module Partition = Secpol_probe.Partition
module Leakage = Secpol_probe.Leakage
module Sampled = Secpol_probe.Sampled

(* Concrete syntax. *)
module Source = Secpol_lang.Source

module Release = Release
