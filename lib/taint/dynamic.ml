module Iset = Secpol_core.Iset
module Value = Secpol_core.Value
module Policy = Secpol_core.Policy
module Mechanism = Secpol_core.Mechanism
module Graph = Secpol_flowgraph.Graph
module Var = Secpol_flowgraph.Var
module Expr = Secpol_flowgraph.Expr
module Store = Secpol_flowgraph.Store
module Interp = Secpol_flowgraph.Interp
module Hook = Secpol_flowgraph.Hook
module Emit = Secpol_flowgraph.Emit
module Graphalgo = Secpol_flowgraph.Graphalgo

type mode = High_water | Surveillance | Scoped | Timed

let mode_name = function
  | High_water -> "high-water"
  | Surveillance -> "surveillance"
  | Scoped -> "scoped"
  | Timed -> "timed"

let all_modes = [ High_water; Surveillance; Scoped; Timed ]

type config = {
  mode : mode;
  allowed : Iset.t;
  fuel : int;
  cost : Expr.cost_model;
  chatty_notices : bool;
  hook : Hook.t;
  emit : Emit.t;
}

let notice = Secpol_core.Notice.(to_string Condemned) (* Λ *)
let fuel_notice = Secpol_core.Notice.(to_string Fuel)
let corruption_fault = Interp.monitor_fault_prefix ^ "surveillance state corrupted"

let config ?(fuel = Interp.default_fuel) ?(cost = Expr.Uniform)
    ?(chatty_notices = false) ?(hook = Hook.none) ?(emit = Emit.none) ~mode
    policy =
  match Policy.allowed_indices policy with
  | Some allowed -> { mode; allowed; fuel; cost; chatty_notices; hook; emit }
  | None ->
      invalid_arg
        (Printf.sprintf
           "Dynamic.config: surveillance is defined for allow(...) policies, \
            got %s"
           (Policy.name policy))

(* Taint store: one surveillance variable per program variable, kept in TWO
   copies. [set] writes both; reads come from the primary. An injected
   Corrupt fault damages only the primary, so the copies disagree — and the
   monitor cross-checks them before every read of taint state ([verify]),
   turning silent corruption into a detected monitor fault. The discipline
   matters: were a corrupted taint ever read, it could propagate through an
   assignment into BOTH copies of the target's surveillance variable and
   become undetectable — an unsound "healed" state that might later grant a
   disallowed output. *)
module Taint_store = struct
  type t = {
    inputs : Iset.t array;
    mutable regs : Iset.t array;
    mutable out : Iset.t;
    shadow_inputs : Iset.t array;
    mutable shadow_regs : Iset.t array;
    mutable shadow_out : Iset.t;
  }

  let create ~arity ~max_reg =
    {
      inputs = Array.init arity Iset.singleton;
      regs = Array.make (max 1 (max_reg + 1)) Iset.empty;
      out = Iset.empty;
      shadow_inputs = Array.init arity Iset.singleton;
      shadow_regs = Array.make (max 1 (max_reg + 1)) Iset.empty;
      shadow_out = Iset.empty;
    }

  let grow a i =
    let bigger = Array.make (max (i + 1) (2 * Array.length a)) Iset.empty in
    Array.blit a 0 bigger 0 (Array.length a);
    bigger

  let ensure st i =
    if i >= Array.length st.regs then begin
      st.regs <- grow st.regs i;
      st.shadow_regs <- grow st.shadow_regs i
    end

  let get st = function
    | Var.Input i -> st.inputs.(i)
    | Var.Reg i ->
        ensure st i;
        st.regs.(i)
    | Var.Out -> st.out

  let set st v l =
    match v with
    | Var.Input i ->
        st.inputs.(i) <- l;
        st.shadow_inputs.(i) <- l
    | Var.Reg i ->
        ensure st i;
        st.regs.(i) <- l;
        st.shadow_regs.(i) <- l
    | Var.Out ->
        st.out <- l;
        st.shadow_out <- l

  let of_vars st vs =
    Var.Set.fold (fun v acc -> Iset.union (get st v) acc) vs Iset.empty

  (* Deterministically pick a surveillance variable and flip one bit of its
     PRIMARY copy only — the injected hardware fault. *)
  let corrupt st ~step =
    let nregs = Array.length st.regs in
    let nvars = Array.length st.inputs + nregs + 1 in
    let slot = abs step mod nvars in
    let bit = abs (step / nvars) mod 4 in
    let flip l = if Iset.mem bit l then Iset.remove bit l else Iset.add bit l in
    if slot < Array.length st.inputs then st.inputs.(slot) <- flip st.inputs.(slot)
    else if slot < Array.length st.inputs + nregs then
      st.regs.(slot - Array.length st.inputs) <-
        flip st.regs.(slot - Array.length st.inputs)
    else st.out <- flip st.out

  let consistent st =
    let eq a b =
      let n = Array.length a in
      let rec go i = i >= n || (Iset.equal a.(i) b.(i) && go (i + 1)) in
      go 0
    in
    eq st.inputs st.shadow_inputs && eq st.regs st.shadow_regs
    && Iset.equal st.out st.shadow_out
end

let reply response steps = { Mechanism.response; steps }

let denial_text cfg ~taint =
  if cfg.chatty_notices then
    Printf.sprintf "%s: disallowed surveillance value %s" notice
      (Iset.to_string taint)
  else notice

let denied cfg ~taint steps = reply (Mechanism.Denied (denial_text cfg ~taint)) steps

(* Fuel exhaustion is a WATCHDOG trip, not a hang: the monitor stays a total
   function into E u F by reporting a distinguished violation notice. *)
let out_of_fuel steps = reply (Mechanism.Denied fuel_notice) steps

(* --- the step machine ----------------------------------------------------

   The monitor as an explicit small-step machine: [prepare] fixes the
   per-graph analyses, [start] materializes the state a run carries between
   boxes, [step] commits exactly one box (one hook consultation, one fuel
   check). [run] below folds the machine to a reply and is bit-identical to
   the historical recursive interpreter — every chaos sweep and parity test
   holds it to that. The explicit state is what makes monitored runs
   durable: between any two [step]s the whole run is a first-class value
   that can be imaged, journaled, and restored after a crash
   ([Secpol_journal]). *)

type state = {
  st_node : int;
  st_steps : int;
  st_store : Store.t;
  st_taints : Taint_store.t;
  st_pc : Iset.t;
  (* Scoped mode: frames of (saved C̄, node at which to restore it),
     innermost first. *)
  st_frames : (Iset.t * int) list;
}

type machine = { m_cfg : config; m_graph : Graph.t; m_ipd : int array }

type step_result = Step of state | Final of Mechanism.reply

let prepare cfg g =
  let ipd =
    match cfg.mode with
    | Scoped -> Graphalgo.immediate_postdominator g
    | High_water | Surveillance | Timed -> [||]
  in
  { m_cfg = cfg; m_graph = g; m_ipd = ipd }

let machine_config m = m.m_cfg
let machine_graph m = m.m_graph
let steps_of st = st.st_steps
let node_of st = st.st_node

let start m inputs =
  let g = m.m_graph in
  if Array.length inputs <> g.Graph.arity then
    Error
      (reply
         (Mechanism.Failed
            (Printf.sprintf "Dynamic.run %s: expected %d inputs, got %d"
               g.Graph.name g.Graph.arity (Array.length inputs)))
         0)
  else
    match Store.of_values ~inputs ~max_reg:(Graph.max_reg g) with
    | exception Invalid_argument msg -> Error (reply (Mechanism.Failed msg) 0)
    | store ->
        let taints =
          Taint_store.create ~arity:g.Graph.arity ~max_reg:(Graph.max_reg g)
        in
        (* The start box costs no step and consults no hook; cross it here
           so every [step] commits a real box. (Graph.validate guarantees a
           single start box with no back edges into it.) *)
        let node =
          match g.Graph.nodes.(g.Graph.entry) with
          | Graph.Start next -> next
          | Graph.Assign _ | Graph.Decision _ | Graph.Halt
          | Graph.Halt_violation _ ->
              g.Graph.entry
        in
        Ok
          {
            st_node = node;
            st_steps = 0;
            st_store = store;
            st_taints = taints;
            st_pc = Iset.empty;
            st_frames = [];
          }

let rec restore_frames node pc frames =
  match frames with
  | (saved, at) :: rest when at = node -> restore_frames node saved rest
  | _ -> (pc, frames)

let out_src = Var.Set.singleton Var.Out

let step m st =
  let cfg = m.m_cfg and g = m.m_graph in
  let steps = st.st_steps in
  let pc, frames =
    if cfg.mode = Scoped then restore_frames st.st_node st.st_pc st.st_frames
    else (st.st_pc, st.st_frames)
  in
  (match cfg.emit with
  | Emit.Null -> ()
  | Emit.Sink _ ->
      (* A scope frame popped: the control context shrank at this box. *)
      if not (frames == st.st_frames) then
        Emit.pc cfg.emit ~step:steps ~node:st.st_node ~pc ~srcs:Var.Set.empty);
  let taints = st.st_taints in
  let env = Store.lookup st.st_store in
  let ok l = Iset.subset l cfg.allowed in
  (* Consult the fault hook, then cross-check the redundant taint store
     BEFORE any surveillance variable is read at this box. The result is
     the fail-secure path to take instead of the box's normal behavior, if
     any. *)
  let stricken () =
    let injected =
      match cfg.hook ~step:steps with
      | Some (Hook.Crash msg) ->
          Some (reply (Mechanism.Failed (Interp.monitor_fault_prefix ^ msg)) steps)
      | Some Hook.Starve -> Some (out_of_fuel steps)
      | Some Hook.Corrupt ->
          Taint_store.corrupt taints ~step:steps;
          None
      | None -> None
    in
    match injected with
    | Some _ as r -> r
    | None ->
        if Taint_store.consistent taints then None
        else Some (reply (Mechanism.Failed corruption_fault) steps)
  in
  try
    match g.Graph.nodes.(st.st_node) with
    | Graph.Start next ->
        Step { st with st_node = next; st_pc = pc; st_frames = frames }
    | Graph.Assign (v, e, next) -> (
        match stricken () with
        | Some r -> Final r
        | None ->
            if steps >= cfg.fuel then Final (out_of_fuel steps)
            else begin
              let vs = Expr.vars e in
              let rhs_taint = Taint_store.of_vars taints vs in
              let base = Iset.union rhs_taint pc in
              let taint =
                match cfg.mode with
                | High_water -> Iset.union (Taint_store.get taints v) base
                | Surveillance | Scoped | Timed -> base
              in
              let value, extra = Expr.eval_cost cfg.cost env e in
              Store.set st.st_store v value;
              Taint_store.set taints v taint;
              Emit.box cfg.emit ~step:steps ~node:st.st_node;
              Emit.taint cfg.emit ~step:steps ~node:st.st_node ~var:v ~taint
                ~srcs:vs;
              Step
                {
                  st with
                  st_node = next;
                  st_steps = steps + 1 + extra;
                  st_pc = pc;
                  st_frames = frames;
                }
            end)
    | Graph.Decision (p, if_true, if_false) -> (
        match stricken () with
        | Some r -> Final r
        | None ->
            if steps >= cfg.fuel then Final (out_of_fuel steps)
            else begin
              let pvs = Expr.pred_vars p in
              let test_taint = Taint_store.of_vars taints pvs in
              match cfg.mode with
              | Timed when not (ok (Iset.union test_taint pc)) ->
                  (* Rule of Theorem 3': abort before the disallowed
                     test. *)
                  let taint = Iset.union test_taint pc in
                  Emit.box cfg.emit ~step:steps ~node:st.st_node;
                  Emit.condemn cfg.emit ~step:steps ~node:st.st_node
                    ~at_decision:true ~taint ~srcs:pvs
                    ~notice:(denial_text cfg ~taint);
                  Final (denied cfg ~taint steps)
              | High_water | Surveillance | Timed ->
                  let pc = Iset.union pc test_taint in
                  let taken, extra = Expr.eval_pred_cost cfg.cost env p in
                  Emit.box cfg.emit ~step:steps ~node:st.st_node;
                  Emit.pc cfg.emit ~step:steps ~node:st.st_node ~pc ~srcs:pvs;
                  Step
                    {
                      st with
                      st_node = (if taken then if_true else if_false);
                      st_steps = steps + 1 + extra;
                      st_pc = pc;
                      st_frames = frames;
                    }
              | Scoped ->
                  let frames =
                    if m.m_ipd.(st.st_node) >= 0 then
                      (pc, m.m_ipd.(st.st_node)) :: frames
                    else frames
                  in
                  let pc = Iset.union pc test_taint in
                  let taken, extra = Expr.eval_pred_cost cfg.cost env p in
                  Emit.box cfg.emit ~step:steps ~node:st.st_node;
                  Emit.pc cfg.emit ~step:steps ~node:st.st_node ~pc ~srcs:pvs;
                  Step
                    {
                      st with
                      st_node = (if taken then if_true else if_false);
                      st_steps = steps + 1 + extra;
                      st_pc = pc;
                      st_frames = frames;
                    }
            end)
    | Graph.Halt -> (
        match stricken () with
        | Some r -> Final r
        | None ->
            let out_taint = Iset.union (Taint_store.get taints Var.Out) pc in
            Emit.box cfg.emit ~step:steps ~node:st.st_node;
            if ok out_taint then
              Final
                (reply (Mechanism.Granted (Value.Int (Store.output st.st_store))) steps)
            else begin
              Emit.condemn cfg.emit ~step:steps ~node:st.st_node
                ~at_decision:false ~taint:out_taint ~srcs:out_src
                ~notice:(denial_text cfg ~taint:out_taint);
              Final (denied cfg ~taint:out_taint steps)
            end)
    | Graph.Halt_violation n ->
        Emit.box cfg.emit ~step:steps ~node:st.st_node;
        Emit.condemn cfg.emit ~step:steps ~node:st.st_node ~at_decision:false
          ~taint:Iset.empty ~srcs:Var.Set.empty ~notice:n;
        Final (reply (Mechanism.Denied n) steps)
  with Expr.Runtime_fault e ->
    Final (reply (Mechanism.Failed (Expr.error_message e)) steps)

let run_to_end m st =
  let rec loop st = match step m st with Step st -> loop st | Final r -> r in
  loop st

let run cfg g inputs =
  let m = prepare cfg g in
  match start m inputs with Error r -> r | Ok st -> run_to_end m st

(* --- serializable state images ------------------------------------------

   A flat, integer-only copy of everything a [state] carries, including the
   shadow copies of the redundant taint store (restoring a corrupted state
   must keep the corruption detectable) and the exact array lengths
   (grow-on-demand sizing is part of deterministic replay). Taint sets
   travel as their bitmask encoding. *)

type image = {
  im_node : int;
  im_steps : int;
  im_inputs : int array;
  im_regs : int array;
  im_out : int;
  im_taint_inputs : int array;
  im_taint_regs : int array;
  im_taint_out : int;
  im_shadow_inputs : int array;
  im_shadow_regs : int array;
  im_shadow_out : int;
  im_pc : int;
  im_frames : (int * int) list;
}

let image st =
  let snap = Store.snapshot st.st_store in
  let ts = st.st_taints in
  let masks = Array.map Iset.to_mask in
  {
    im_node = st.st_node;
    im_steps = st.st_steps;
    im_inputs = snap.Store.snap_inputs;
    im_regs = snap.Store.snap_regs;
    im_out = snap.Store.snap_out;
    im_taint_inputs = masks ts.Taint_store.inputs;
    im_taint_regs = masks ts.Taint_store.regs;
    im_taint_out = Iset.to_mask ts.Taint_store.out;
    im_shadow_inputs = masks ts.Taint_store.shadow_inputs;
    im_shadow_regs = masks ts.Taint_store.shadow_regs;
    im_shadow_out = Iset.to_mask ts.Taint_store.shadow_out;
    im_pc = Iset.to_mask st.st_pc;
    im_frames =
      List.map (fun (pc, at) -> (Iset.to_mask pc, at)) st.st_frames;
  }

let image_equal (a : image) (b : image) = a = b

let of_image g img =
  let err fmt = Printf.ksprintf (fun m -> Error ("Dynamic.of_image: " ^ m)) fmt in
  let nodes = Graph.node_count g in
  let nonneg a = Array.for_all (fun m -> m >= 0) a in
  if img.im_node < 0 || img.im_node >= nodes then
    err "node %d outside [0,%d)" img.im_node nodes
  else if img.im_steps < 0 then err "negative step count %d" img.im_steps
  else if Array.length img.im_inputs <> g.Graph.arity then
    err "input array length %d, arity %d" (Array.length img.im_inputs)
      g.Graph.arity
  else if Array.length img.im_regs = 0 then err "empty register array"
  else if
    Array.length img.im_taint_inputs <> g.Graph.arity
    || Array.length img.im_shadow_inputs <> g.Graph.arity
  then err "taint input arrays do not match arity %d" g.Graph.arity
  else if
    Array.length img.im_taint_regs = 0
    || Array.length img.im_taint_regs <> Array.length img.im_shadow_regs
  then err "taint register arrays empty or of unequal length"
  else if
    not
      (nonneg img.im_taint_inputs && nonneg img.im_taint_regs
      && nonneg img.im_shadow_inputs && nonneg img.im_shadow_regs
      && img.im_taint_out >= 0 && img.im_shadow_out >= 0 && img.im_pc >= 0)
  then err "negative taint mask"
  else if
    List.exists (fun (pc, at) -> pc < 0 || at < 0 || at >= nodes) img.im_frames
  then err "frame with negative mask or out-of-range restore node"
  else
    let sets = Array.map Iset.of_mask in
    let store =
      Store.restore
        {
          Store.snap_inputs = img.im_inputs;
          snap_regs = img.im_regs;
          snap_out = img.im_out;
        }
    in
    let taints =
      {
        Taint_store.inputs = sets img.im_taint_inputs;
        regs = sets img.im_taint_regs;
        out = Iset.of_mask img.im_taint_out;
        shadow_inputs = sets img.im_shadow_inputs;
        shadow_regs = sets img.im_shadow_regs;
        shadow_out = Iset.of_mask img.im_shadow_out;
      }
    in
    Ok
      {
        st_node = img.im_node;
        st_steps = img.im_steps;
        st_store = store;
        st_taints = taints;
        st_pc = Iset.of_mask img.im_pc;
        st_frames =
          List.map (fun (pc, at) -> (Iset.of_mask pc, at)) img.im_frames;
      }

(* Observer variant for the static-soundness cross-check: track taint with
   Scoped semantics (pc restored at the immediate postdominator — the
   dynamic counterpart of the static analysis's bounded decision regions)
   but enforce nothing, and report the taint the halt-box check would see. *)
let out_taint ?(fuel = Interp.default_fuel) g inputs =
  if Array.length inputs <> g.Graph.arity then
    Error
      (Printf.sprintf "Dynamic.out_taint %s: expected %d inputs, got %d"
         g.Graph.name g.Graph.arity (Array.length inputs))
  else
    let max_reg = Graph.max_reg g in
    match Store.of_values ~inputs ~max_reg with
    | exception Invalid_argument m -> Error m
    | store ->
        let taints = Taint_store.create ~arity:g.Graph.arity ~max_reg in
        let env = Store.lookup store in
        let ipd = Graphalgo.immediate_postdominator g in
        let frames : (Iset.t * int) list ref = ref [] in
        let pc = ref Iset.empty in
        let restore_at node =
          let rec pop () =
            match !frames with
            | (saved, at) :: rest when at = node ->
                pc := saved;
                frames := rest;
                pop ()
            | _ -> ()
          in
          pop ()
        in
        let rec go node steps =
          restore_at node;
          match g.Graph.nodes.(node) with
          | Graph.Start next -> go next steps
          | Graph.Assign (v, e, next) ->
              if steps >= fuel then Error "diverged"
              else begin
                let rhs_taint = Taint_store.of_vars taints (Expr.vars e) in
                let value, extra = Expr.eval_cost Expr.Uniform env e in
                Store.set store v value;
                Taint_store.set taints v (Iset.union rhs_taint !pc);
                go next (steps + 1 + extra)
              end
          | Graph.Decision (p, if_true, if_false) ->
              if steps >= fuel then Error "diverged"
              else begin
                let test_taint = Taint_store.of_vars taints (Expr.pred_vars p) in
                (if ipd.(node) >= 0 then frames := (!pc, ipd.(node)) :: !frames);
                pc := Iset.union !pc test_taint;
                let taken, extra = Expr.eval_pred_cost Expr.Uniform env p in
                go (if taken then if_true else if_false) (steps + 1 + extra)
              end
          | Graph.Halt -> Ok (Iset.union (Taint_store.get taints Var.Out) !pc)
          | Graph.Halt_violation n -> Error ("halted with violation notice " ^ n)
        in
        (try go g.Graph.entry 0
         with Expr.Runtime_fault e -> Error (Expr.error_message e))

(* --- residual monitoring -------------------------------------------------

   [run_residual] executes a static watch plan ([Secpol_staticflow.Certifier.
   residual_plan]): boxes marked unwatched skip their surveillance work.
   The reply is bit-identical to [run]'s because verdicts depend only on
   the DISALLOWED part of each checked taint set (with the single notice,
   "taint within allowed" is "no disallowed bits"), and the plan guarantees
   skipping preserves those parts exactly:

   - an unwatched assignment writes the empty set in place of the join its
     static bound proves free of disallowed bits (or whose target can never
     reach a check) — both copies, so the redundant-store cross-check keeps
     working;
   - an unwatched decision leaves C-bar unchanged — the bits it would add
     are all allowed — and, in scoped mode, still pushes its restore frame
     so inner watched decisions pop the same contexts;
   - halt boxes, the fuel watchdog, the fault hook and the consistency
     check run unchanged; step accounting is untouched.

   Chatty notices are refused: their text quotes the full taint value,
   which residual tracking deliberately does not maintain. Trace events
   still fire but carry residual taint values; journaling composes with
   the FULL monitor only (a residual image would not resume into one). *)

type residual_stats = { watched_boxes : int; skipped_boxes : int }

let rec run_residual cfg ~watch g inputs =
  if cfg.chatty_notices then
    invalid_arg
      "Dynamic.run_residual: chatty notices quote taint values the residual \
       monitor does not track";
  if Array.length watch <> Array.length g.Graph.nodes then
    invalid_arg
      (Printf.sprintf
         "Dynamic.run_residual %s: plan covers %d nodes, graph has %d"
         g.Graph.name (Array.length watch)
         (Array.length g.Graph.nodes));
  let m = prepare cfg g in
  let watched = ref 0 and skipped = ref 0 in
  let commit node = incr (if watch.(node) then watched else skipped) in
  let rec go st =
    match residual_step m ~watch ~commit st with
    | Step st -> go st
    | Final r -> r
  in
  let reply =
    match start m inputs with Error r -> r | Ok st -> go st
  in
  (reply, { watched_boxes = !watched; skipped_boxes = !skipped })

and residual_step m ~watch ~commit st =
  let cfg = m.m_cfg and g = m.m_graph in
  let steps = st.st_steps in
  let pc, frames =
    if cfg.mode = Scoped then restore_frames st.st_node st.st_pc st.st_frames
    else (st.st_pc, st.st_frames)
  in
  (match cfg.emit with
  | Emit.Null -> ()
  | Emit.Sink _ ->
      if not (frames == st.st_frames) then
        Emit.pc cfg.emit ~step:steps ~node:st.st_node ~pc ~srcs:Var.Set.empty);
  let taints = st.st_taints in
  let env = Store.lookup st.st_store in
  let ok l = Iset.subset l cfg.allowed in
  let stricken () =
    let injected =
      match cfg.hook ~step:steps with
      | Some (Hook.Crash msg) ->
          Some (reply (Mechanism.Failed (Interp.monitor_fault_prefix ^ msg)) steps)
      | Some Hook.Starve -> Some (out_of_fuel steps)
      | Some Hook.Corrupt ->
          Taint_store.corrupt taints ~step:steps;
          None
      | None -> None
    in
    match injected with
    | Some _ as r -> r
    | None ->
        if Taint_store.consistent taints then None
        else Some (reply (Mechanism.Failed corruption_fault) steps)
  in
  try
    match g.Graph.nodes.(st.st_node) with
    | Graph.Start next ->
        Step { st with st_node = next; st_pc = pc; st_frames = frames }
    | Graph.Assign (v, e, next) -> (
        match stricken () with
        | Some r -> Final r
        | None ->
            if steps >= cfg.fuel then Final (out_of_fuel steps)
            else begin
              commit st.st_node;
              let taint =
                if watch.(st.st_node) then begin
                  let vs = Expr.vars e in
                  let rhs_taint = Taint_store.of_vars taints vs in
                  let base = Iset.union rhs_taint pc in
                  match cfg.mode with
                  | High_water -> Iset.union (Taint_store.get taints v) base
                  | Surveillance | Scoped | Timed -> base
                end
                else Iset.empty
              in
              let value, extra = Expr.eval_cost cfg.cost env e in
              Store.set st.st_store v value;
              Taint_store.set taints v taint;
              Emit.box cfg.emit ~step:steps ~node:st.st_node;
              if watch.(st.st_node) then
                Emit.taint cfg.emit ~step:steps ~node:st.st_node ~var:v ~taint
                  ~srcs:(Expr.vars e);
              Step
                {
                  st with
                  st_node = next;
                  st_steps = steps + 1 + extra;
                  st_pc = pc;
                  st_frames = frames;
                }
            end)
    | Graph.Decision (p, if_true, if_false) -> (
        match stricken () with
        | Some r -> Final r
        | None ->
            if steps >= cfg.fuel then Final (out_of_fuel steps)
            else begin
              commit st.st_node;
              (* Scoped frames are pushed watched or not: an inner watched
                 decision must pop the same saved contexts either way. *)
              let frames =
                if cfg.mode = Scoped && m.m_ipd.(st.st_node) >= 0 then
                  (pc, m.m_ipd.(st.st_node)) :: frames
                else frames
              in
              if watch.(st.st_node) then begin
                let pvs = Expr.pred_vars p in
                let test_taint = Taint_store.of_vars taints pvs in
                match cfg.mode with
                | Timed when not (ok (Iset.union test_taint pc)) ->
                    let taint = Iset.union test_taint pc in
                    Emit.box cfg.emit ~step:steps ~node:st.st_node;
                    Emit.condemn cfg.emit ~step:steps ~node:st.st_node
                      ~at_decision:true ~taint ~srcs:pvs
                      ~notice:(denial_text cfg ~taint);
                    Final (denied cfg ~taint steps)
                | High_water | Surveillance | Scoped | Timed ->
                    let pc = Iset.union pc test_taint in
                    let taken, extra = Expr.eval_pred_cost cfg.cost env p in
                    Emit.box cfg.emit ~step:steps ~node:st.st_node;
                    Emit.pc cfg.emit ~step:steps ~node:st.st_node ~pc ~srcs:pvs;
                    Step
                      {
                        st with
                        st_node = (if taken then if_true else if_false);
                        st_steps = steps + 1 + extra;
                        st_pc = pc;
                        st_frames = frames;
                      }
              end
              else begin
                (* The plan proved this test adds only allowed bits, so the
                   timed check cannot fire and C-bar's disallowed part is
                   unchanged. *)
                let taken, extra = Expr.eval_pred_cost cfg.cost env p in
                Emit.box cfg.emit ~step:steps ~node:st.st_node;
                Step
                  {
                    st with
                    st_node = (if taken then if_true else if_false);
                    st_steps = steps + 1 + extra;
                    st_pc = pc;
                    st_frames = frames;
                  }
              end
            end)
    | Graph.Halt -> (
        match stricken () with
        | Some r -> Final r
        | None ->
            let out_taint = Iset.union (Taint_store.get taints Var.Out) pc in
            Emit.box cfg.emit ~step:steps ~node:st.st_node;
            if ok out_taint then
              Final
                (reply (Mechanism.Granted (Value.Int (Store.output st.st_store))) steps)
            else begin
              Emit.condemn cfg.emit ~step:steps ~node:st.st_node
                ~at_decision:false ~taint:out_taint ~srcs:out_src
                ~notice:(denial_text cfg ~taint:out_taint);
              Final (denied cfg ~taint:out_taint steps)
            end)
    | Graph.Halt_violation n ->
        Emit.box cfg.emit ~step:steps ~node:st.st_node;
        Emit.condemn cfg.emit ~step:steps ~node:st.st_node ~at_decision:false
          ~taint:Iset.empty ~srcs:Var.Set.empty ~notice:n;
        Final (reply (Mechanism.Denied n) steps)
  with Expr.Runtime_fault e ->
    Final (reply (Mechanism.Failed (Expr.error_message e)) steps)

let mechanism cfg g =
  Mechanism.make
    ~name:(Printf.sprintf "%s(%s)" (mode_name cfg.mode) g.Graph.name)
    ~arity:g.Graph.arity
    (fun a -> run cfg g a)
