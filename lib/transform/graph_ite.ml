module Var = Secpol_flowgraph.Var
module Expr = Secpol_flowgraph.Expr
module Ast = Secpol_flowgraph.Ast
module Graph = Secpol_flowgraph.Graph
module Graphalgo = Secpol_flowgraph.Graphalgo

(* A straight, privately-owned assignment chain from [start] to [stop]:
   every node strictly between is an Assign with exactly one predecessor. *)
let chain_to g preds ~start ~stop =
  let rec walk acc node =
    if node = stop then Some (List.rev acc)
    else
      match g.Graph.nodes.(node) with
      | Graph.Assign (v, e, next) when List.length preds.(node) = 1 ->
          walk ((v, e) :: acc) next
      | _ -> None
  in
  walk [] start

let diamond g preds ipd d =
  match g.Graph.nodes.(d) with
  | Graph.Decision (p, t, f) when ipd.(d) >= 0 ->
      let j = ipd.(d) in
      (match (chain_to g preds ~start:t ~stop:j, chain_to g preds ~start:f ~stop:j) with
      | Some ct, Some cf -> Some (p, ct, cf, j)
      | _ -> None)
  | _ -> None

let diamonds g =
  let preds = Graphalgo.predecessors g in
  let ipd = Graphalgo.immediate_postdominator g in
  List.filter
    (fun d -> diamond g preds ipd d <> None)
    (List.init (Graph.node_count g) Fun.id)

let rewrite_one ~simp g (d, (p, ct, cf, j)) =
  (* The diamond as a structured branch: its symbolic effect is one select
     per variable either chain assigns. *)
  let chain c = Ast.Seq (List.map (fun (v, e) -> Ast.Assign (v, e)) c) in
  let effect = Transforms.symbolic_effect (Ast.If (p, chain ct, chain cf)) in
  let fresh = ref (Graph.max_reg g + 1) in
  let selects =
    Var.Map.fold
      (fun v e acc ->
        let t = Var.Reg !fresh in
        incr fresh;
        (v, t, if simp then Expr.simplify e else e) :: acc)
      effect []
  in
  (* d becomes the head of: t_i := select_i ... ; v_i := t_i ... ; -> j.
     New nodes are appended; d's own slot holds the first instruction. *)
  let nodes = ref [] in
  let base = Graph.node_count g in
  let push node =
    nodes := node :: !nodes;
    base + List.length !nodes - 1
  in
  let instrs =
    List.map (fun (_, t, e) -> (t, e)) selects
    @ List.map (fun (v, t, _) -> (v, Expr.Var t)) selects
  in
  let replacement, appended =
    match instrs with
    | [] ->
        (* Degenerate diamond: the test vanishes entirely. *)
        let t = Var.Reg !fresh in
        (Graph.Assign (t, Expr.Const 0, j), [])
    | (v0, e0) :: rest ->
        (* Chain the tail through appended slots; the head sits at d. *)
        let rec build = function
          | [] -> j
          | (v, e) :: more ->
              let next = build more in
              push (Graph.Assign (v, e, next))
        in
        let next = build rest in
        (Graph.Assign (v0, e0, next), List.rev !nodes)
  in
  let new_nodes = Array.append (Array.copy g.Graph.nodes) (Array.of_list appended) in
  new_nodes.(d) <- replacement;
  Graph.make ~name:g.Graph.name ~arity:g.Graph.arity ~entry:g.Graph.entry new_nodes

let rewrite ?(simplify = true) g =
  Array.iter
    (function
      | Graph.Halt_violation _ ->
          invalid_arg "Graph_ite.rewrite: graph is already a mechanism"
      | _ -> ())
    g.Graph.nodes;
  let rec fix g =
    let preds = Graphalgo.predecessors g in
    let ipd = Graphalgo.immediate_postdominator g in
    let candidate =
      List.find_map
        (fun d ->
          match diamond g preds ipd d with
          | Some dd -> Some (d, dd)
          | None -> None)
        (List.init (Graph.node_count g) Fun.id)
    in
    match candidate with
    | None -> g
    | Some c -> fix (rewrite_one ~simp:simplify g c)
  in
  let out = fix g in
  { out with Graph.name = g.Graph.name ^ "+gite" }
