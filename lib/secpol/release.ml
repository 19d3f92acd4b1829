module Policy = Secpol_core.Policy
module Program = Secpol_core.Program
module Mechanism = Secpol_core.Mechanism
module Soundness = Secpol_core.Soundness
module Completeness = Secpol_core.Completeness
module Ast = Secpol_flowgraph.Ast
module Graph = Secpol_flowgraph.Graph
module Compile = Secpol_flowgraph.Compile
module Interp = Secpol_flowgraph.Interp
module Dynamic = Secpol_taint.Dynamic
module Certify = Secpol_staticflow.Certify
module Halt_guard = Secpol_staticflow.Halt_guard
module Transforms = Secpol_transform.Transforms
module Search = Secpol_transform.Search
module Analyze = Secpol_engine.Analyze

type route =
  | Ship_bare of Program.t
  | Guarded of Graph.t * Mechanism.t
  | Monitored of Mechanism.t
  | Refuse

let route_name = function
  | Ship_bare _ -> "ship-bare"
  | Guarded _ -> "guarded"
  | Monitored _ -> "monitored"
  | Refuse -> "refuse"

type report = {
  route : route;
  mechanism : Mechanism.t;
  completeness : float;
  maximal : float;
  certified : bool;
  notes : string list;
}

let plan ?(search_depth = 2) ~policy ~space (prog : Ast.prog) =
  (match Policy.allowed_indices policy with
  | Some _ -> ()
  | None -> invalid_arg "Release.plan: needs an allow(...) policy");
  let q = Interp.ast_program prog in
  let analyze = Analyze.config space in
  let ratio m = Completeness.ratio m ~q space in
  let mx_ratio = fst (Analyze.maximal_ratio analyze policy q) in
  let certified = Certify.certified ~policy prog in
  let finish route mechanism notes =
    {
      route;
      mechanism;
      completeness = ratio mechanism;
      maximal = mx_ratio;
      certified;
      notes = List.rev notes;
    }
  in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  if mx_ratio = 0.0 then begin
    note "no sound mechanism can serve any input: refusing outright";
    finish Refuse (Mechanism.pull_the_plug prog.Ast.arity) !notes
  end
  else if certified then begin
    note "whole-program certification passed: zero-overhead release";
    finish (Ship_bare q) (Certify.mechanism ~policy prog) !notes
  end
  else begin
    note "certification rejected the whole program";
    (* Try the per-halt static route on the duplicated, halt-split graph. *)
    let guarded_graph =
      Transforms.split_halts (Compile.compile (Transforms.sink_into_branches prog))
    in
    let guard = Halt_guard.mechanism ~policy guarded_graph in
    let guard_ratio = ratio guard in
    if guard_ratio >= mx_ratio && guard_ratio > 0.0 then begin
      note "per-halt guard after duplication serves %.0f%%: static route kept"
        (100.0 *. guard_ratio);
      finish (Guarded (guarded_graph, guard)) guard !notes
    end
    else begin
      if guard_ratio > 0.0 then
        note "per-halt guard serves only %.0f%% of the %.0f%% achievable"
          (100.0 *. guard_ratio) (100.0 *. mx_ratio);
      (* Dynamic route: plain surveillance joined with the search's sound
         candidates (the guard included, so the monitor never regresses). *)
      let search = Search.search ~max_depth:search_depth ~policy ~space prog in
      let monitor =
        Mechanism.rename "release-monitor"
          (Mechanism.join search.Search.best guard)
      in
      note "monitoring: transform search joined %d sound candidates (%.0f%%)"
        (List.length search.Search.candidates)
        (100.0 *. ratio monitor);
      (* The construction is sound by composition; verify anyway. *)
      match fst (Analyze.soundness analyze policy monitor) with
      | Soundness.Sound -> finish (Monitored monitor) monitor !notes
      | Soundness.Unsound _ ->
          (* Cannot happen: joins of verified-sound mechanisms. Refuse
             loudly rather than ship a leak if it ever does. *)
          note "verification of the composed monitor failed: refusing";
          finish Refuse (Mechanism.pull_the_plug prog.Ast.arity) !notes
    end
  end
