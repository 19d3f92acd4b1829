module Policy = Secpol_core.Policy
module Space = Secpol_core.Space
module Mechanism = Secpol_core.Mechanism
module Soundness = Secpol_core.Soundness
module Completeness = Secpol_core.Completeness
module Ast = Secpol_flowgraph.Ast
module Compile = Secpol_flowgraph.Compile
module Interp = Secpol_flowgraph.Interp
module Dynamic = Secpol_taint.Dynamic
module Halt_guard = Secpol_staticflow.Halt_guard
module Analyze = Secpol_engine.Analyze

type candidate = { label : string; mechanism : Mechanism.t; ratio : float }

type report = {
  best : Mechanism.t;
  best_ratio : float;
  candidates : candidate list;
  maximal_ratio : float;
  discarded : (string * string) list;
}

let transforms ~while_bound =
  [
    ("ite", fun p -> Transforms.ite ~simplify:true p);
    ("ite0", fun p -> Transforms.ite ~simplify:false p);
    ("dup", Transforms.sink_into_branches);
    ("while", fun p -> Transforms.predicate_loops ~residual:false ~bound:while_bound p);
  ]

(* All transform sequences up to the depth, as (label, program) pairs,
   deduplicated by the program's structure. *)
let variants ~max_depth ~while_bound prog =
  let seen = Hashtbl.create 32 in
  let out = ref [] in
  let visit label p =
    if not (Hashtbl.mem seen p.Ast.body) then begin
      Hashtbl.add seen p.Ast.body ();
      out := (label, p) :: !out;
      true
    end
    else false
  in
  let rec go depth label p =
    if depth < max_depth then
      List.iter
        (fun (name, f) ->
          match f p with
          | p' ->
              let label' = if label = "" then name else label ^ ";" ^ name in
              if visit label' p' then go (depth + 1) label' p'
          | exception Invalid_argument _ -> ())
        (transforms ~while_bound)
  in
  ignore (visit "original" prog);
  go 0 "" prog;
  List.rev !out

let search ?(max_depth = 2) ?(while_bound = 4) ~policy ~space prog =
  let q = Interp.ast_program prog in
  let arity = prog.Ast.arity in
  let analyze = Analyze.config space in
  let discarded = ref [] in
  let consider (label, p') =
    match Transforms.equivalent_on prog p' space with
    | Error _ ->
        discarded := (label, "not equivalent on the space") :: !discarded;
        []
    | Ok () ->
        let g = Compile.compile p' in
        let surveil g =
          Dynamic.mechanism (Dynamic.config ~mode:Dynamic.Surveillance policy) g
        in
        let gite =
          match Graph_ite.rewrite g with
          | g' -> [ (label ^ "+gite+surv", surveil g') ]
          | exception Invalid_argument why ->
              discarded := (label ^ "+gite+surv", why) :: !discarded;
              []
        in
        let attempts =
          (label ^ "+surv", surveil g)
          :: (label ^ "+guard", Halt_guard.mechanism ~policy (Transforms.split_halts g))
          :: gite
        in
        List.filter_map
          (fun (label, m) ->
            match fst (Analyze.soundness analyze policy m) with
            | Soundness.Sound ->
                Some
                  { label; mechanism = m; ratio = Completeness.ratio m ~q space }
            | Soundness.Unsound _ ->
                discarded := (label, "measured unsound") :: !discarded;
                None)
          attempts
  in
  let candidates =
    List.concat_map consider (variants ~max_depth ~while_bound prog)
    |> List.sort (fun a b -> Float.compare b.ratio a.ratio)
  in
  let best =
    Mechanism.rename "searched"
      (Mechanism.join_list ~arity (List.map (fun c -> c.mechanism) candidates))
  in
  {
    best;
    best_ratio = Completeness.ratio best ~q space;
    candidates;
    maximal_ratio = fst (Analyze.maximal_ratio analyze policy q);
    discarded = List.rev !discarded;
  }
