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
   ([Secpol_journal]).

   [step] is the only graph walker. The full monitor, the residual monitor
   ([run_residual]) and the observer ([out_taint]) are machines over it
   that differ in their watch plan and in where the fold stops. *)

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

(* A static watch plan in force, with the committed assignment and decision
   boxes it has watched and released so far. *)
type plan = { watch : bool array; mutable watched : int; mutable skipped : int }

type machine = {
  m_cfg : config;
  m_graph : Graph.t;
  m_ipd : int array;
  m_plan : plan option;  (* [None]: every box watched, the full monitor *)
}

type step_result = Step of state | Final of Mechanism.reply

let prepare cfg g =
  let ipd =
    match cfg.mode with
    | Scoped -> Graphalgo.immediate_postdominator g
    | High_water | Surveillance | Timed -> [||]
  in
  { m_cfg = cfg; m_graph = g; m_ipd = ipd; m_plan = None }

let steps_of st = st.st_steps

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

(* Consult the fault hook, then cross-check the redundant taint store BEFORE
   any surveillance variable is read at this box. The result is the
   fail-secure reply to give instead of the box's normal behavior, if any. *)
let stricken cfg taints steps =
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
  | Some _ -> injected
  | None ->
      if Taint_store.consistent taints then None
      else Some (reply (Mechanism.Failed corruption_fault) steps)

(* Whether the committed assignment or decision box at [node] does its
   surveillance work; a residual plan also counts it. *)
let watches m node =
  match m.m_plan with
  | None -> true
  | Some plan ->
      let w = plan.watch.(node) in
      if w then plan.watched <- plan.watched + 1
      else plan.skipped <- plan.skipped + 1;
      w

let step m st =
  let cfg = m.m_cfg and node = st.st_node and steps = st.st_steps in
  let pc, frames =
    if cfg.mode = Scoped then restore_frames node st.st_pc st.st_frames
    else (st.st_pc, st.st_frames)
  in
  (match cfg.emit with
  | Emit.Null -> ()
  | Emit.Sink _ ->
      (* A scope frame popped: the control context shrank at this box. *)
      if not (frames == st.st_frames) then
        Emit.pc cfg.emit ~step:steps ~node ~pc ~srcs:Var.Set.empty);
  let taints = st.st_taints in
  let env = Store.lookup st.st_store in
  try
    match m.m_graph.Graph.nodes.(node) with
    | Graph.Start next ->
        Step { st with st_node = next; st_pc = pc; st_frames = frames }
    | Graph.Assign (v, e, next) -> (
        match stricken cfg taints steps with
        | Some r -> Final r
        | None when steps >= cfg.fuel -> Final (out_of_fuel steps)
        | None ->
            (* An unwatched assignment records the empty taint: the plan
               proved its join has no disallowed bits, or that it never
               reaches a check. *)
            let watched = watches m node in
            let vs = if watched then Expr.vars e else Var.Set.empty in
            let taint =
              if not watched then Iset.empty
              else
                let base = Iset.union (Taint_store.of_vars taints vs) pc in
                match cfg.mode with
                | High_water -> Iset.union (Taint_store.get taints v) base
                | Surveillance | Scoped | Timed -> base
            in
            let value, extra = Expr.eval_cost cfg.cost env e in
            Store.set st.st_store v value;
            Taint_store.set taints v taint;
            Emit.box cfg.emit ~step:steps ~node;
            if watched then
              Emit.taint cfg.emit ~step:steps ~node ~var:v ~taint ~srcs:vs;
            Step
              {
                st with
                st_node = next;
                st_steps = steps + 1 + extra;
                st_pc = pc;
                st_frames = frames;
              })
    | Graph.Decision (p, if_true, if_false) -> (
        match stricken cfg taints steps with
        | Some r -> Final r
        | None when steps >= cfg.fuel -> Final (out_of_fuel steps)
        | None ->
            (* An unwatched decision leaves C̄ alone and skips the timed
               check: the plan proved its test adds only allowed bits. Its
               scope frame is pushed either way, so inner watched decisions
               pop the same saved contexts. *)
            let watched = watches m node in
            let frames =
              if cfg.mode = Scoped && m.m_ipd.(node) >= 0 then
                (pc, m.m_ipd.(node)) :: frames
              else frames
            in
            let pvs = if watched then Expr.pred_vars p else Var.Set.empty in
            let pc =
              if watched then Iset.union pc (Taint_store.of_vars taints pvs)
              else pc
            in
            if watched && cfg.mode = Timed && not (Iset.subset pc cfg.allowed)
            then begin
              (* Rule of Theorem 3': abort before the disallowed test. *)
              Emit.box cfg.emit ~step:steps ~node;
              Emit.condemn cfg.emit ~step:steps ~node ~at_decision:true
                ~taint:pc ~srcs:pvs ~notice:(denial_text cfg ~taint:pc);
              Final (denied cfg ~taint:pc steps)
            end
            else begin
              let taken, extra = Expr.eval_pred_cost cfg.cost env p in
              Emit.box cfg.emit ~step:steps ~node;
              if watched then Emit.pc cfg.emit ~step:steps ~node ~pc ~srcs:pvs;
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
        match stricken cfg taints steps with
        | Some r -> Final r
        | None ->
            let out_taint = Iset.union (Taint_store.get taints Var.Out) pc in
            Emit.box cfg.emit ~step:steps ~node;
            if Iset.subset out_taint cfg.allowed then
              Final
                (reply (Mechanism.Granted (Value.Int (Store.output st.st_store))) steps)
            else begin
              Emit.condemn cfg.emit ~step:steps ~node ~at_decision:false
                ~taint:out_taint ~srcs:out_src
                ~notice:(denial_text cfg ~taint:out_taint);
              Final (denied cfg ~taint:out_taint steps)
            end)
    | Graph.Halt_violation n ->
        Emit.box cfg.emit ~step:steps ~node;
        Emit.condemn cfg.emit ~step:steps ~node ~at_decision:false
          ~taint:Iset.empty ~srcs:Var.Set.empty ~notice:n;
        Final (reply (Mechanism.Denied n) steps)
  with Expr.Runtime_fault e ->
    Final (reply (Mechanism.Failed (Expr.error_message e)) steps)

let run_to_end m st =
  let rec loop st = match step m st with Step st -> loop st | Final r -> r in
  loop st

let fold m inputs =
  match start m inputs with Error r -> r | Ok st -> run_to_end m st

let run cfg g inputs = fold (prepare cfg g) inputs

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

(* Observer variant for the static-soundness cross-check: the Scoped
   machine (pc restored at the immediate postdominator — the dynamic
   counterpart of the static analysis's bounded decision regions), stepped
   up to its halt box, where it reports the taint the halt-box check would
   see instead of enforcing it. *)
let out_taint ?fuel g inputs =
  if Array.length inputs <> g.Graph.arity then
    Error
      (Printf.sprintf "Dynamic.out_taint %s: expected %d inputs, got %d"
         g.Graph.name g.Graph.arity (Array.length inputs))
  else
    let m = prepare (config ?fuel ~mode:Scoped Policy.allow_none) g in
    (* Without a hook the machine stops early only on the fuel watchdog or
       a runtime fault of the program. *)
    let error r =
      match r.Mechanism.response with
      | Mechanism.Failed msg -> Error msg
      | Mechanism.Granted _ | Mechanism.Denied _ | Mechanism.Hung ->
          Error "diverged"
    in
    let rec go st =
      match g.Graph.nodes.(st.st_node) with
      | Graph.Halt ->
          let pc, _ = restore_frames st.st_node st.st_pc st.st_frames in
          Ok (Iset.union (Taint_store.get st.st_taints Var.Out) pc)
      | Graph.Halt_violation n -> Error ("halted with violation notice " ^ n)
      | Graph.Start _ | Graph.Assign _ | Graph.Decision _ -> (
          match step m st with Step st -> go st | Final r -> error r)
    in
    match start m inputs with Error r -> error r | Ok st -> go st

(* --- residual monitoring -------------------------------------------------

   [run_residual] is [run] under a static watch plan
   ([Secpol_staticflow.Certifier.residual_plan]): [step] skips the
   surveillance work of the boxes it marks unwatched. The reply is
   bit-identical to [run]'s because verdicts depend only on the DISALLOWED
   part of each checked taint set (with the single notice, "taint within
   allowed" is "no disallowed bits"), and the plan guarantees skipping
   preserves those parts exactly:

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

let run_residual cfg ~watch g inputs =
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
  let plan = { watch; watched = 0; skipped = 0 } in
  let reply = fold { (prepare cfg g) with m_plan = Some plan } inputs in
  (reply, { watched_boxes = plan.watched; skipped_boxes = plan.skipped })

let mechanism cfg g =
  Mechanism.make
    ~name:(Printf.sprintf "%s(%s)" (mode_name cfg.mode) g.Graph.name)
    ~arity:g.Graph.arity
    (fun a -> run cfg g a)
