module Iset = Secpol_core.Iset
module Value = Secpol_core.Value
module Policy = Secpol_core.Policy
module Mechanism = Secpol_core.Mechanism
module Paper = Secpol_corpus.Paper_programs
module Json = Secpol_staticflow.Lint.Json
module Metrics = Secpol_trace.Metrics
module Pool = Secpol_engine.Pool

let show_input a =
  "(" ^ String.concat "," (Array.to_list (Array.map Value.to_string a)) ^ ")"

let show_response = function
  | Mechanism.Granted v -> "granted " ^ Value.to_string v
  | Mechanism.Denied f -> "denied " ^ f
  | Mechanism.Hung -> "hung"
  | Mechanism.Failed m -> "failed: " ^ m

let show_reply (r : Mechanism.reply) =
  Printf.sprintf "%s (%d steps)" (show_response r.Mechanism.response)
    r.Mechanism.steps

let policies_of_arity arity =
  List.init (1 lsl arity) (fun mask -> Policy.allow_set (Iset.of_mask mask))

let cases entries =
  List.concat_map
    (fun (entry : Paper.entry) ->
      List.map
        (fun policy -> (entry, policy))
        (policies_of_arity (Paper.graph entry).Secpol_flowgraph.Graph.arity))
    entries

let spread k xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n <= k then xs
  else List.init k (fun i -> arr.(i * (n - 1) / max 1 (k - 1)))

type finding = {
  subject : string list;
  fields : (string * Json.value) list;
  detail : string;
}

type series = Counter of string | Histogram of string
type ctx = { metrics : Metrics.t; note : finding -> unit }

type view = {
  title : string;
  params : (string * Json.value) list;
  rows : (string * string * string option) list;
  verdict_ok : string;
  verdict_fail : string;
}

type report = {
  view : view;
  metrics : Metrics.t;
  findings : finding list;
  ok : bool;
  pool : Pool.stats;
}

let max_findings = 20

(* Registered up front so every rendering keeps the vocabulary's order
   whatever fires first. *)
let registry stats =
  let m = Metrics.create () in
  List.iter
    (function
      | Counter n -> ignore (Metrics.counter m n)
      | Histogram n -> ignore (Metrics.histogram m n))
    stats;
  m

let counter_in metrics name =
  match Metrics.find metrics name with
  | Some (Metrics.Counter n) -> n
  | Some (Metrics.Gauge _ | Metrics.Histogram _) | None ->
      invalid_arg (Printf.sprintf "Harness.count: no counter %S" name)

(* The task list does not depend on [jobs]: the same tasks run whatever
   the pool width, and their shards and findings merge in task order, so
   the report is the sequential one. *)
let run ~jobs ~stats ~zero ~describe tasks run_task =
  let tasks = Array.of_list tasks in
  let shards, pool =
    Pool.map ~jobs (Array.length tasks) (fun i ->
        let metrics = registry stats in
        let found = ref [] in
        let note f =
          if List.length !found < max_findings then found := f :: !found
        in
        run_task { metrics; note } tasks.(i);
        (metrics, List.rev !found))
  in
  let metrics = registry stats in
  let c_tasks = Metrics.counter metrics "engine_tasks" in
  Array.iter (fun (m, _) -> Metrics.merge ~into:metrics m) shards;
  Metrics.incr ~by:pool.Pool.task_count c_tasks;
  let count = counter_in metrics in
  {
    view = describe count;
    metrics;
    findings =
      List.filteri
        (fun i _ -> i < max_findings)
        (List.concat_map snd (Array.to_list shards));
    ok = List.for_all (fun name -> count name = 0) zero;
    pool;
  }

let count r = counter_in r.metrics

(* Findings render in sorted order, not accumulation order: a total order
   over their JSON fields (then detail) is a stable key no scheduler can
   perturb. *)
let rec compare_json a b =
  match (a, b) with
  | Json.Null, Json.Null -> 0
  | Json.Null, _ -> -1
  | _, Json.Null -> 1
  | Json.Bool a, Json.Bool b -> Bool.compare a b
  | Json.Bool _, _ -> -1
  | _, Json.Bool _ -> 1
  | Json.Int a, Json.Int b -> Int.compare a b
  | Json.Int _, _ -> -1
  | _, Json.Int _ -> 1
  | Json.String a, Json.String b -> String.compare a b
  | Json.String _, _ -> -1
  | _, Json.String _ -> 1
  | Json.List a, Json.List b -> compare_json_list a b
  | Json.List _, _ -> -1
  | _, Json.List _ -> 1
  | Json.Obj a, Json.Obj b ->
      compare_json_list
        (List.map (fun (k, v) -> Json.List [ Json.String k; v ]) a)
        (List.map (fun (k, v) -> Json.List [ Json.String k; v ]) b)

and compare_json_list a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
      let c = compare_json x y in
      if c <> 0 then c else compare_json_list xs ys

let compare_finding a b =
  let c = compare_json (Json.Obj a.fields) (Json.Obj b.fields) in
  if c <> 0 then c else String.compare a.detail b.detail

let sorted_findings r = List.stable_sort compare_finding r.findings

let pp ppf r =
  let v = r.view in
  Format.fprintf ppf "%s@." v.title;
  let width =
    List.fold_left (fun w (_, label, _) -> max w (String.length label)) 0 v.rows
  in
  List.iter
    (fun (name, label, note) ->
      Format.fprintf ppf "  %-*s %6d%s@." width label
        (count r name)
        (match note with None -> "" | Some n -> "  (" ^ n ^ ")"))
    v.rows;
  List.iter
    (fun f ->
      Format.fprintf ppf "  ! %s: %s@." (String.concat " / " f.subject)
        f.detail)
    (sorted_findings r);
  Format.fprintf ppf "verdict: %s@."
    (if r.ok then v.verdict_ok else v.verdict_fail)

let to_json r =
  let totals =
    List.filter_map
      (fun (name, stat) ->
        match stat with
        | Metrics.Counter n -> Some (name, Json.Int n)
        | Metrics.Gauge _ | Metrics.Histogram _ -> None)
      (Metrics.stats r.metrics)
  in
  Json.Obj
    (r.view.params
    @ [
        ("totals", Json.Obj totals);
        ( "findings",
          Json.List
            (List.map
               (fun f ->
                 Json.Obj (f.fields @ [ ("detail", Json.String f.detail) ]))
               (sorted_findings r)) );
        ("metrics", Metrics.to_json r.metrics);
        ("ok", Json.Bool r.ok);
      ])

let to_json_string r = Json.render (to_json r)
