module Value = Secpol_core.Value
module Space = Secpol_core.Space
module Program = Secpol_core.Program
module Var = Secpol_flowgraph.Var
module Expr = Secpol_flowgraph.Expr
module Ast = Secpol_flowgraph.Ast
module Graph = Secpol_flowgraph.Graph
module Interp = Secpol_flowgraph.Interp

(* Node budget for symbolic effects. Forward substitution across unrolled
   loop copies and nested selects grows expression trees geometrically, and
   every later walk (simplify, compile, structural comparison) pays the
   unfolded size, so an effect past the budget is refused instead. *)
let max_nodes = 20_000

(* [e] itself, once its unfolded node count is known to be within the
   budget; the walk stops as soon as the budget is spent. *)
let bounded e =
  let left = ref max_nodes in
  let spend () =
    decr left;
    if !left < 0 then
      invalid_arg
        (Printf.sprintf "symbolic_effect: expression exceeds %d nodes" max_nodes)
  in
  let rec expr e =
    spend ();
    match e with
    | Expr.Const _ | Expr.Var _ -> ()
    | Expr.Neg a | Expr.Bnot a -> expr a
    | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b) | Expr.Div (a, b)
    | Expr.Mod (a, b) | Expr.Bor (a, b) | Expr.Band (a, b) ->
        expr a;
        expr b
    | Expr.Cond (p, a, b) ->
        pred p;
        expr a;
        expr b
  and pred p =
    spend ();
    match p with
    | Expr.True | Expr.False -> ()
    | Expr.Cmp (_, a, b) ->
        expr a;
        expr b
    | Expr.And (p, q) | Expr.Or (p, q) ->
        pred p;
        pred q
    | Expr.Not p -> pred p
  in
  expr e;
  e

let symbolic_effect stmt =
  let rec eff sigma = function
    | Ast.Skip -> sigma
    | Ast.Assign (v, e) -> Var.Map.add v (bounded (Expr.subst sigma e)) sigma
    | Ast.Seq l -> List.fold_left eff sigma l
    | Ast.If (p, a, b) ->
        let p' = Expr.subst_pred sigma p in
        let sa = eff sigma a and sb = eff sigma b in
        let get s v =
          match Var.Map.find_opt v s with Some e -> e | None -> Expr.Var v
        in
        let dom =
          Var.Map.fold (fun v _ acc -> Var.Set.add v acc) sa Var.Set.empty
          |> Var.Map.fold (fun v _ acc -> Var.Set.add v acc) sb
        in
        Var.Set.fold
          (fun v acc ->
            Var.Map.add v (bounded (Expr.Cond (p', get sa v, get sb v))) acc)
          dom sigma
    | Ast.While _ -> invalid_arg "symbolic_effect: loop"
    | Ast.At (_, s) -> eff sigma s
  in
  eff Var.Map.empty stmt

(* Emit the effect map as straight-line code. Temporaries make the parallel
   assignment sequential-safe. *)
let emit_effect ~fresh ~simp m =
  let bindings = Var.Map.bindings m in
  let with_temps =
    List.map
      (fun (v, e) ->
        let t = Var.Reg !fresh in
        incr fresh;
        (v, t, if simp then Expr.simplify e else e))
      bindings
  in
  Ast.seq
    (List.map (fun (_, t, e) -> Ast.Assign (t, e)) with_temps
    @ List.map (fun (v, t, _) -> Ast.Assign (v, Expr.Var t)) with_temps)

let ite ?(simplify = true) (p : Ast.prog) =
  let fresh = ref (Ast.max_reg p + 1) in
  let rec tr = function
    | (Ast.Skip | Ast.Assign _) as s -> s
    | Ast.Seq l -> Ast.seq (List.map tr l)
    | Ast.While (c, body) -> Ast.While (c, tr body)
    | Ast.If (c, a, b) ->
        let a = tr a and b = tr b in
        let branch = Ast.If (c, a, b) in
        if Ast.loop_free a && Ast.loop_free b then
          emit_effect ~fresh ~simp:simplify (symbolic_effect branch)
        else branch
    | Ast.At (sp, s) -> Ast.At (sp, tr s)
  in
  Ast.prog ~name:(p.Ast.name ^ "+ite") ~arity:p.Ast.arity (tr p.Ast.body)

let predicate_loops ?(residual = true) ~bound (p : Ast.prog) =
  if bound < 0 then invalid_arg "predicate_loops: negative bound";
  let fresh = ref (Ast.max_reg p + 1) in
  let predicated c body =
    let g = Var.Reg !fresh in
    incr fresh;
    let m = symbolic_effect body in
    let open Expr in
    let guard_live = Cmp (Eq, Var g, Const 1) in
    let one_copy () =
      let update_guard =
        Ast.Assign (g, Cond (And (guard_live, c), Const 1, Const 0))
      in
      let guarded =
        Var.Map.fold
          (fun v e acc -> Var.Map.add v (Cond (guard_live, e, Var v)) acc)
          m Var.Map.empty
      in
      Ast.seq [ update_guard; emit_effect ~fresh ~simp:false guarded ]
    in
    let copies = List.init bound (fun _ -> one_copy ()) in
    (* If the guard is still live past the bound the original loop would
       have kept going: diverge rather than answer wrongly. The caller may
       drop this safety net once the bound is known sufficient. *)
    let tail =
      if residual then [ Ast.While (And (guard_live, c), Ast.Skip) ] else []
    in
    Ast.seq ((Ast.Assign (g, Const 1) :: copies) @ tail)
  in
  let rec tr = function
    | (Ast.Skip | Ast.Assign _) as s -> s
    | Ast.Seq l -> Ast.seq (List.map tr l)
    | Ast.If (c, a, b) -> Ast.If (c, tr a, tr b)
    | Ast.While (c, body) ->
        let body = tr body in
        if Ast.loop_free body then predicated c body else Ast.While (c, body)
    | Ast.At (sp, s) -> Ast.At (sp, tr s)
  in
  Ast.prog
    ~name:(Printf.sprintf "%s+while%d" p.Ast.name bound)
    ~arity:p.Ast.arity (tr p.Ast.body)

let sink_into_branches (p : Ast.prog) =
  let rec sink = function
    | (Ast.Skip | Ast.Assign _) as s -> s
    | Ast.If (c, a, b) -> Ast.If (c, sink a, sink b)
    | Ast.While (c, body) -> Ast.While (c, sink body)
    | Ast.Seq l -> sink_seq l
    | Ast.At (sp, s) -> Ast.At (sp, sink s)
  and sink_seq = function
    | [] -> Ast.Skip
    | [ s ] -> sink s
    | Ast.If (c, a, b) :: rest ->
        let tail = sink_seq rest in
        Ast.If (c, Ast.seq [ sink a; tail ], Ast.seq [ sink b; tail ])
    | Ast.Seq inner :: rest -> sink_seq (inner @ rest)
    | Ast.At (_, (Ast.If _ | Ast.Seq _ as s)) :: rest -> sink_seq (s :: rest)
    | s :: rest -> Ast.seq [ sink s; sink_seq rest ]
  in
  Ast.prog ~name:(p.Ast.name ^ "+dup") ~arity:p.Ast.arity (sink p.Ast.body)

let split_halts (g : Graph.t) =
  let n = Graph.node_count g in
  (* Edges pointing at each plain halt box. *)
  let halt_preds = Hashtbl.create 8 in
  Array.iteri
    (fun i node ->
      List.iter
        (fun s ->
          match g.Graph.nodes.(s) with
          | Graph.Halt ->
              Hashtbl.replace halt_preds s
                (i :: (Option.value ~default:[] (Hashtbl.find_opt halt_preds s)))
          | _ -> ())
        (match node with
        | Graph.Start s -> [ s ]
        | Graph.Assign (_, _, s) -> [ s ]
        | Graph.Decision (_, a, b) -> [ a; b ]
        | Graph.Halt | Graph.Halt_violation _ -> []))
    g.Graph.nodes;
  let extra = ref [] in
  let next_index = ref n in
  (* For each halt with several incoming edges, all but the first incoming
     edge get a private copy. *)
  let replacement : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun h preds ->
      match List.rev preds with
      | [] | [ _ ] -> ()
      | _first :: rest ->
          List.iter
            (fun p ->
              Hashtbl.replace replacement (p, h) !next_index;
              extra := Graph.Halt :: !extra;
              incr next_index)
            rest)
    halt_preds;
  let redirect i s =
    match Hashtbl.find_opt replacement (i, s) with Some s' -> s' | None -> s
  in
  let rewritten =
    Array.mapi
      (fun i node ->
        match node with
        | Graph.Start s -> Graph.Start (redirect i s)
        | Graph.Assign (v, e, s) -> Graph.Assign (v, e, redirect i s)
        | Graph.Decision (p, a, b) ->
            Graph.Decision (p, redirect i a, redirect i b)
        | (Graph.Halt | Graph.Halt_violation _) as h -> h)
      g.Graph.nodes
  in
  let extra = Array.of_list (List.rev !extra) in
  let nodes = Array.append rewritten extra in
  let spans =
    Array.append g.Graph.spans (Array.make (Array.length extra) None)
  in
  Graph.make ~name:(g.Graph.name ^ "+split") ~arity:g.Graph.arity
    ~entry:g.Graph.entry ~spans nodes

let equivalent_on ?fuel (p1 : Ast.prog) (p2 : Ast.prog) space =
  if p1.Ast.arity <> p2.Ast.arity then
    invalid_arg "equivalent_on: arity mismatch";
  let differs a =
    let r1 = (Interp.run_ast ?fuel p1 a).Program.result in
    let r2 = (Interp.run_ast ?fuel p2 a).Program.result in
    match (r1, r2) with
    | Program.Value v1, Program.Value v2 -> not (Value.equal v1 v2)
    | Program.Diverged, Program.Diverged -> false
    | Program.Fault _, Program.Fault _ -> false
    | _ -> true
  in
  match Seq.find differs (Space.enumerate space) with
  | None -> Ok ()
  | Some a -> Error a
