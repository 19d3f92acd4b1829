(* secpol: command-line interface to the enforcement library.

   Programs are addressed by their corpus name (see `secpol list`) or by a
   file path ending in .spl holding While-language source (see `secpol fmt`
   and examples/programs/). Policies are given as the comma-separated
   allowed input indices, e.g. `-p 0,2`, or `-p -` for allow() (nothing
   allowed). *)

module Value = Secpol_core.Value
module Policy = Secpol_core.Policy
module Program = Secpol_core.Program
module Mechanism = Secpol_core.Mechanism
module Soundness = Secpol_core.Soundness
module Completeness = Secpol_core.Completeness
module Maximal = Secpol_core.Maximal
module Ast = Secpol_flowgraph.Ast
module Graph = Secpol_flowgraph.Graph
module Compile = Secpol_flowgraph.Compile
module Interp = Secpol_flowgraph.Interp
module Dynamic = Secpol_taint.Dynamic
module Instrument = Secpol_taint.Instrument
module Certify = Secpol_staticflow.Certify
module Leakage = Secpol_probe.Leakage
module Tabulate = Secpol_probe.Tabulate
module Paper = Secpol_corpus.Paper_programs
module Media = Secpol_journal.Media
module Runner = Secpol_journal.Runner
module Iset = Secpol_core.Iset
module Event = Secpol_trace.Event
module Sink = Secpol_trace.Sink
module Provenance = Secpol_trace.Provenance
module Run = Secpol.Run
module Pool = Secpol.Pool
module Exhaustive = Secpol.Exhaustive
open Cmdliner

(* --- shared arguments --------------------------------------------------- *)

let program_arg =
  let doc = "Corpus program name (try `secpol list`) or a .spl file path." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let is_file name =
  Filename.check_suffix name ".spl" || String.contains name '/'

(* File-loaded programs get a wrapper entry: the file's "# policy:" hint
   (or allow()) and a small exhaustive space, both overridable with -p. *)
let entry_result name =
  if is_file name then
    match Secpol_lang.Source.load_with_hint name with
    | Ok (prog, hint) ->
        Ok
          {
            Paper.name = prog.Ast.name;
            prog;
            policy = Option.value hint ~default:Policy.allow_none;
            space = Secpol_core.Space.ints ~lo:0 ~hi:3 ~arity:prog.Ast.arity;
            paper_ref = name;
            claim = "";
            note = "";
          }
    | Error m -> Error (Printf.sprintf "%s: %s" name m)
  else
    match Paper.find name with
    | e -> Ok e
    | exception Not_found ->
        Error
          (Printf.sprintf "unknown program %S; try `secpol list` or a .spl path"
             name)

let entry_of_name name =
  match entry_result name with
  | Ok e -> e
  | Error m ->
      prerr_endline m;
      exit 2

let policy_conv =
  let parse s =
    if s = "-" then Ok Policy.allow_none
    else
      try
        Ok
          (Policy.allow
             (List.map int_of_string
                (String.split_on_char ',' s |> List.filter (fun x -> x <> ""))))
      with
      | Failure _ -> Error (`Msg "policy must be like 0,2 or -")
      | Invalid_argument m -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf p -> Format.fprintf ppf "%s" (Policy.name p))

let policy_arg =
  let doc =
    "Security policy: comma-separated allowed input indices (0-based), or - \
     for allow(). Defaults to the policy the paper discusses for the program."
  in
  Arg.(value & opt (some policy_conv) None & info [ "p"; "policy" ] ~docv:"POLICY" ~doc)

let inputs_arg =
  let doc = "Comma-separated integer inputs, e.g. 3,0." in
  Arg.(required & opt (some string) None & info [ "i"; "inputs" ] ~docv:"INPUTS" ~doc)

let parse_inputs s =
  try Array.of_list (List.map (fun x -> Value.int (int_of_string x)) (String.split_on_char ',' s))
  with Failure _ ->
    prerr_endline "inputs must be integers like 3,0";
    exit 2

let mode_conv =
  let parse = function
    | "high-water" -> Ok Dynamic.High_water
    | "surveillance" -> Ok Dynamic.Surveillance
    | "scoped" -> Ok Dynamic.Scoped
    | "timed" -> Ok Dynamic.Timed
    | s -> Error (`Msg (s ^ ": expected high-water|surveillance|scoped|timed"))
  in
  Arg.conv (parse, fun ppf m -> Format.fprintf ppf "%s" (Dynamic.mode_name m))

let mode_arg =
  let doc = "Dynamic mechanism: high-water, surveillance, scoped or timed." in
  Arg.(value & opt mode_conv Dynamic.Surveillance & info [ "m"; "mode" ] ~docv:"MODE" ~doc)

let resolve_policy entry = function
  | Some p -> p
  | None -> entry.Paper.policy

let seed_arg =
  let doc =
    "Base seed of the deterministic RNG streams (fault plans and media \
     tampers replay bit-for-bit from it)."
  in
  Arg.(value & opt int 0 & info [ "seed"; "base-seed" ] ~docv:"SEED" ~doc)

let json_arg =
  let doc = "Emit the report as JSON (same as $(b,--format) json)." in
  Arg.(value & flag & info [ "json" ] ~doc)

let format_arg =
  let doc = "Output format: text or json." in
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FORMAT" ~doc)

let output_format json format = if json then `Json else format

let jobs_arg =
  let doc =
    "Engine pool width: spread the command's independent work over $(docv) \
     domains. Reports and verdicts are byte-identical whatever the value; \
     scheduling telemetry goes to stderr."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let check_jobs jobs =
  if jobs < 1 || jobs > Pool.max_jobs then begin
    Printf.eprintf "--jobs must be between 1 and %d\n" Pool.max_jobs;
    exit 2
  end;
  jobs

let shards_arg =
  let doc =
    "Split the enforcement across $(docv) cooperating shard enforcers \
     merged fail-securely by a coordinator; on a fault-free host the \
     reply is bit-identical to the single enforcer. Requires an \
     allow(...) policy."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let check_shards shards =
  if shards < 1 || shards > Pool.max_jobs then begin
    Printf.eprintf "--shards must be between 1 and %d\n" Pool.max_jobs;
    exit 2
  end;
  shards

(* Scheduling telemetry is stderr-only: stdout carries the report, whose
   bytes are promised independent of --jobs. *)
let report_pool (stats : Pool.stats) =
  if stats.Pool.jobs > 1 then Format.eprintf "%a@." Pool.pp_stats stats

(* --- trace arguments ------------------------------------------------------ *)

let trace_arg =
  let doc =
    "Write a structured trace of the run to $(docv): one event per executed \
     box, surveillance-variable update, control-context change, guard \
     retry, journal checkpoint and verdict. Format per $(b,--trace-format)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc =
    "Trace format: jsonl (one decodable event per line — the format `secpol \
     explain --from` reads back) or chrome (a trace-event array for \
     chrome://tracing or Perfetto)."
  in
  Arg.(
    value
    & opt (enum [ ("jsonl", Sink.Jsonl); ("chrome", Sink.Chrome) ]) Sink.Jsonl
    & info [ "trace-format" ] ~docv:"FORMAT" ~doc)

(* Run [f] with a sink on [trace] (null when omitted) and return its exit
   code; the sink is closed here rather than by [f], because [exit] inside
   [f] would skip any finaliser. *)
let with_sink trace format f =
  match trace with
  | None -> f Sink.null
  | Some path ->
      let sink =
        try Sink.to_file format path
        with Sys_error m ->
          prerr_endline m;
          exit 2
      in
      let code =
        try f sink
        with e ->
          Sink.close sink;
          raise e
      in
      Sink.close sink;
      code

(* --- journal arguments --------------------------------------------------- *)

let journal_arg =
  let doc =
    Printf.sprintf
      "Journal the monitored run into $(docv) (created if missing). One \
       file, $(docv)/journal.bin ($(docv)/shard-I/journal.bin per shard), \
       takes a checkpoint of the initial state, one checksummed record per \
       committed interpreter box, and the verdict; the run syncs it once, \
       after the verdict, before the reply is printed. A journal past %d \
       KiB is compacted to its next checkpoint. A killed run is resumed \
       with `secpol resume`."
      (Media.compact_bytes / 1024)
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"DIR" ~doc)

let kill_at_arg =
  let doc =
    "Fault injection: abort the journaled run after $(docv) committed boxes, \
     simulating a crash (requires --journal)."
  in
  Arg.(value & opt (some int) None & info [ "kill-at" ] ~docv:"N" ~doc)

let snapshot_every_arg =
  let doc =
    "Append a fresh checkpoint of the whole monitor state every $(docv) \
     records; recovery replays at most $(docv) records past it."
  in
  Arg.(
    value
    & opt int Runner.default_snapshot_every
    & info [ "snapshot-every" ] ~docv:"N" ~doc)

(* A sharded or journaled monitored run, shared by `run` and `enforce`:
   [cfg], journaled into [dir] when given, with the --kill-at fault
   scripted into the journal. Prints the reply, or how to resume a killed
   run, and returns the exit code. *)
let durable_run ~dir ~kill_at ~snapshot_every ~program_ref ~show_reply cfg g a =
  if cfg.Run.shards > 1 && kill_at <> None then begin
    prerr_endline
      "--kill-at applies to journaled single-enforcer runs; with --shards, \
       kills are exercised by `secpol chaos --dist`";
    exit 2
  end;
  if dir <> None && snapshot_every < 1 then begin
    prerr_endline "--snapshot-every must be at least 1";
    exit 2
  end;
  let journal =
    Option.map
      (fun d -> { (Run.journal_dir ~snapshot_every ~program_ref d) with Run.kill_at })
      dir
  in
  match Run.run { cfg with Run.journal } g a with
  | r ->
      show_reply r;
      0
  | exception Run.Killed at_box ->
      (* Only a journaled run can be killed. *)
      Printf.printf "killed after %d journaled box(es); recover with: secpol resume %s\n"
        at_box (Option.get dir);
      0

(* The interpreters are total, but Mechanism.respond still treats a
   wrong-length input vector as a caller bug; catch it at the door. *)
let check_arity (e : Paper.entry) a =
  let k = e.Paper.prog.Ast.arity in
  if Array.length a <> k then begin
    Printf.eprintf "%s expects %d input(s), got %d\n" e.Paper.name k
      (Array.length a);
    exit 2
  end

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    let t = Tabulate.create ~header:[ "name"; "paper ref"; "policy"; "claim" ] in
    List.iter
      (fun (e : Paper.entry) ->
        let clip s = if String.length s > 58 then String.sub s 0 55 ^ "..." else s in
        Tabulate.add_row t
          [ e.Paper.name; e.Paper.paper_ref; Policy.name e.Paper.policy; clip e.Paper.claim ])
      Paper.all;
    Tabulate.print t
  in
  Cmd.v (Cmd.info "list" ~doc:"List the paper-program corpus")
    Term.(const run $ const ())

(* --- show ---------------------------------------------------------------- *)

let show_cmd =
  let run name instrumented policy =
    let e = entry_of_name name in
    Format.printf "%a@.@." Ast.pp_prog e.Paper.prog;
    let g = Paper.graph e in
    Format.printf "%a@." Graph.pp g;
    if instrumented then begin
      let p = resolve_policy e policy in
      match Policy.allowed_indices p with
      | Some allowed ->
          Format.printf "@.%a@." Graph.pp
            (Instrument.instrument Instrument.Untimed ~allowed g)
      | None -> prerr_endline "cannot instrument for a non-allow policy"
    end
  in
  let instr =
    Arg.(value & flag & info [ "instrumented" ] ~doc:"Also print the surveillance-instrumented flowchart.")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a corpus program as source and as a flowchart")
    Term.(const run $ program_arg $ instr $ policy_arg)

(* --- run ----------------------------------------------------------------- *)

let run_cmd =
  let run name inputs shards journal kill_at snapshot_every trace trace_format =
    let shards = check_shards shards in
    let e = entry_of_name name in
    let a = parse_inputs inputs in
    check_arity e a;
    let g = Paper.graph e in
    let code =
      with_sink trace trace_format (fun sink ->
          if shards = 1 && journal = None then begin
            (* A policy-less Run config is the plain graph interpreter:
               raw Q, never monitored, never cached. *)
            Sink.emit sink
              (Event.run_header ~program:e.Paper.name ~arity:g.Graph.arity
                 ~mode:"unmonitored" ~allowed:Iset.empty ~inputs:a);
            let r = Run.run (Run.config ~trace:sink ()) g a in
            Sink.emit sink (Event.of_reply r);
            (match r.Mechanism.response with
            | Mechanism.Granted v -> Format.printf "output: %a@." Value.pp v
            | Mechanism.Hung -> print_endline "output: <diverged>"
            | Mechanism.Denied n -> Printf.printf "violation notice: %s\n" n
            | Mechanism.Failed m -> Printf.printf "output: <fault: %s>\n" m);
            Printf.printf "steps:  %d\n" r.Mechanism.steps;
            0
          end
          else
            (* Sharding and journaling need the step machine, so the run
               goes through the monitored interpreter under
               allow(everything) — same outputs, distributed or durable
               for real. *)
            let p = Policy.allow_all ~arity:e.Paper.prog.Ast.arity in
            let show_reply (r : Mechanism.reply) =
              (match r.Mechanism.response with
              | Mechanism.Granted v -> Format.printf "output: %a@." Value.pp v
              | Mechanism.Denied n when n = Dynamic.fuel_notice ->
                  print_endline "output: <diverged>"
              | Mechanism.Denied n -> Printf.printf "violation notice: %s\n" n
              | Mechanism.Hung -> print_endline "output: <diverged>"
              | Mechanism.Failed m -> Printf.printf "output: <fault: %s>\n" m);
              Printf.printf "steps:  %d\n" r.Mechanism.steps
            in
            durable_run ~dir:journal ~kill_at ~snapshot_every ~program_ref:name
              ~show_reply
              (Run.config ~policy:p ~shards ~trace:sink ())
              g a)
    in
    exit code
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a corpus program unprotected; with --journal, run it durably \
          under an allow-everything monitor; with --shards, split it \
          across cooperating shard enforcers")
    Term.(
      const run $ program_arg $ inputs_arg $ shards_arg $ journal_arg
      $ kill_at_arg $ snapshot_every_arg $ trace_arg $ trace_format_arg)

(* --- enforce -------------------------------------------------------------- *)

let show_enforce_reply (r : Mechanism.reply) =
  (match r.Mechanism.response with
  | Mechanism.Granted v -> Format.printf "granted: %a@." Value.pp v
  | Mechanism.Denied n -> Printf.printf "violation notice: %s\n" n
  | Mechanism.Hung -> print_endline "<mechanism diverged>"
  | Mechanism.Failed msg -> Printf.printf "<mechanism fault: %s>\n" msg);
  Printf.printf "steps:  %d\n" r.Mechanism.steps

let enforce_cmd =
  let run name inputs mode policy shards journal kill_at snapshot_every trace
      trace_format =
    let shards = check_shards shards in
    let e = entry_of_name name in
    let p = resolve_policy e policy in
    let a = parse_inputs inputs in
    check_arity e a;
    let g = Paper.graph e in
    let code =
      with_sink trace trace_format (fun sink ->
          if shards = 1 && journal = None then begin
            Sink.emit sink
              (Event.run_header ~program:e.Paper.name ~arity:g.Graph.arity
                 ~mode:(Dynamic.mode_name mode)
                 ~allowed:
                   (Option.value (Policy.allowed_indices p) ~default:Iset.empty)
                 ~inputs:a);
            let r = Run.run (Run.config ~policy:p ~mode ~trace:sink ()) g a in
            Sink.emit sink (Event.of_reply r);
            show_enforce_reply r;
            0
          end
          else begin
            if Policy.allowed_indices p = None then begin
              prerr_endline
                (if shards > 1 then
                   "distributed enforcement needs an allow(...) policy"
                 else "journaled enforcement needs an allow(...) policy");
              exit 2
            end;
            durable_run ~dir:journal ~kill_at ~snapshot_every ~program_ref:name
              ~show_reply:show_enforce_reply
              (Run.config ~policy:p ~mode ~shards ~trace:sink ())
              g a
          end)
    in
    exit code
  in
  Cmd.v
    (Cmd.info "enforce"
       ~doc:
         "Run a corpus program under a dynamic protection mechanism, \
          optionally journaled for crash recovery or split across \
          cooperating shard enforcers")
    Term.(
      const run $ program_arg $ inputs_arg $ mode_arg $ policy_arg
      $ shards_arg $ journal_arg $ kill_at_arg $ snapshot_every_arg
      $ trace_arg $ trace_format_arg)

(* --- resume ---------------------------------------------------------------- *)

let resume_cmd =
  let run dir trace trace_format =
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Printf.eprintf "%s: no such journal directory\n" dir;
      exit 2
    end;
    let code =
      with_sink trace trace_format (fun sink ->
    let media = Media.dir dir in
    let resolve (h : Runner.header) =
      Result.map Paper.graph (entry_result h.Runner.program_ref)
    in
    (* The graph is only known once [resolve] runs, so resume traces carry
       no source spans. *)
    let result = Run.resume (Run.config ~trace:sink ()) ~resolve ~media in
    Media.close media;
    match result with
    | Ok res ->
        Printf.printf "program:  %s (%s mode, %s)\n" res.Runner.header.Runner.program_ref
          (Dynamic.mode_name res.Runner.header.Runner.mode)
          (Policy.name (Policy.allow_set res.Runner.header.Runner.allowed));
        if res.Runner.was_complete then
          print_endline "journal already held the verdict; nothing re-executed"
        else
          Printf.printf
            "replayed %d journal record(s)%s, resumed at step %d\n"
            res.Runner.replayed
            (if res.Runner.torn_bytes > 0 then
               Printf.sprintf " (dropped %d torn byte(s))" res.Runner.torn_bytes
             else "")
            res.Runner.resumed_steps;
        show_enforce_reply res.Runner.reply;
        0
    | Error e ->
        (* Fail-secure degradation: an unrecoverable journal is the single
           violation notice, with the diagnosis on stderr only. *)
        let reply = Run.reply_of_resume (Error e) in
        (match reply.Mechanism.response with
        | Mechanism.Denied n -> Printf.printf "violation notice: %s\n" n
        | _ -> assert false);
        Printf.eprintf "journal unrecoverable: %s\n" (Runner.failure_message e);
        1)
    in
    exit code
  in
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Journal directory written by --journal.")
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Recover a journaled run: replay the last checkpoint plus the \
          journal suffix and continue under the same monitor. \
          Bit-identical to the uninterrupted run on intact media; degrades \
          to the violation notice \xce\x9b/recovery on unrecoverable media. \
          Exits 0 when the run was reproduced, 1 on \xce\x9b/recovery, 2 on \
          usage errors.")
    Term.(const run $ dir $ trace_arg $ trace_format_arg)

(* --- certify --------------------------------------------------------------- *)

(* Corpus programs are hand-built ASTs with no source spans; recover them
   by re-parsing the pretty-printed source, which `fmt` guarantees is
   stable. File programs come spanned already. Shared by lint and
   certify. *)
let spanned_prog (e : Paper.entry) =
  let src = Secpol_lang.Source.to_source e.Paper.prog in
  let prog =
    match Secpol_lang.Source.parse src with
    | Ok prog -> prog
    | Error _ -> e.Paper.prog
  in
  (src, prog)

let certify_cmd =
  let module Certifier = Secpol_staticflow.Certifier in
  let module Label = Secpol_core.Lattice.Label in
  let module Json = Certifier.Json in
  let order_conv =
    let parse s =
      match s with
      | "two-point" -> Ok Label.two_point
      | "diamond" -> Ok Label.diamond
      | _ when String.length s > 6 && String.sub s 0 6 = "chain:" -> (
          let levels =
            String.sub s 6 (String.length s - 6)
            |> String.split_on_char ','
            |> List.filter (fun x -> x <> "")
          in
          try Ok (Label.chain ~name:s levels)
          with Invalid_argument m -> Error (`Msg m))
      | _ -> Error (`Msg (s ^ ": expected two-point|diamond|chain:a,b,..."))
    in
    Arg.conv (parse, fun ppf o -> Format.fprintf ppf "%s" (Label.name o))
  in
  let order_arg =
    let doc =
      "Label lattice for --labels: two-point (low ⊑ high), diamond, or \
       chain:a,b,... (lowest first)."
    in
    Arg.(value & opt order_conv Label.two_point & info [ "order" ] ~docv:"ORDER" ~doc)
  in
  let labels_arg =
    let doc =
      "Certify against a label-lattice policy instead of -p: one level per \
       input, comma-separated, e.g. low,high."
    in
    Arg.(value & opt (some string) None & info [ "labels" ] ~docv:"LABELS" ~doc)
  in
  let clearance_arg =
    let doc =
      "Observer clearance for --labels (defaults to the order's bottom)."
    in
    Arg.(value & opt (some string) None & info [ "clearance" ] ~docv:"LEVEL" ~doc)
  in
  let run name policy order labels clearance format json =
    let format = output_format json format in
    let e = entry_of_name name in
    let _, prog = spanned_prog e in
    let g = Compile.compile prog in
    let report, label_policy =
      match labels with
      | Some ls -> (
          let levels =
            String.split_on_char ',' ls |> List.filter (fun x -> x <> "")
          in
          let clearance =
            Option.value clearance ~default:(Label.bottom order)
          in
          try
            let lp = Label.policy ~order ~labels:levels ~clearance in
            (Certifier.certify_label ~policy:lp g, Some lp)
          with Invalid_argument m ->
            prerr_endline m;
            exit 2)
      | None -> (
          if clearance <> None then begin
            prerr_endline "--clearance requires --labels";
            exit 2
          end;
          let p = resolve_policy e policy in
          match Policy.allowed_indices p with
          | None ->
              prerr_endline "certification needs an allow(...) policy";
              exit 2
          | Some _ -> (Certifier.certify_policy ~policy:p g, None))
    in
    (match format with
    | `Json ->
        let js =
          match (Certifier.to_json report, label_policy) with
          | Json.Obj fields, Some lp ->
              Json.Obj
                (fields
                @ [
                    ( "output-label",
                      Json.String (Certifier.output_label ~policy:lp report) );
                    ("clearance", Json.String (Label.clearance lp));
                    ("order", Json.String (Label.name (Label.policy_order lp)));
                  ])
          | js, _ -> js
        in
        print_endline (Json.render js)
    | `Text ->
        (match label_policy with
        | Some lp ->
            Format.printf "labels:       %a@." Label.pp_policy lp;
            Printf.printf "output label: %s (clearance %s)\n"
              (Certifier.output_label ~policy:lp report)
              (Label.clearance lp)
        | None -> ());
        Format.printf "%a@." Certifier.pp_report report);
    exit (match report.Certifier.verdict with Certifier.Proved -> 0 | _ -> 1)
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Statically certify a program: prove it policy-clean for every \
          input and every monitor mode, refute it with a replayable \
          counterexample input, or report the residual-monitor plan for the \
          undecided rest. Policies are allow-sets (-p) or label-lattice \
          assignments (--labels/--clearance/--order). Exits 0 when proved, \
          1 otherwise, 2 on usage errors.")
    Term.(
      const run $ program_arg $ policy_arg $ order_arg $ labels_arg
      $ clearance_arg $ format_arg $ json_arg)

(* --- measure --------------------------------------------------------------- *)

let algo_arg =
  let doc =
    "Analysis algorithm: $(b,refine) partitions the space by policy image \
     and runs the program once per representative until each class is \
     proven constant or mixed; $(b,brute) enumerates every point. Both \
     give bit-identical verdicts and tables — brute is kept as the \
     differential oracle the refined path is gated against."
  in
  Arg.(
    value
    & opt
        (enum [ ("refine", Secpol.Analyze.Refine); ("brute", Secpol.Analyze.Brute) ])
        Secpol.Analyze.Refine
    & info [ "algo" ] ~docv:"ALGO" ~doc)

let measure_cmd =
  let module Analyze = Secpol.Analyze in
  let module Json = Secpol_staticflow.Lint.Json in
  let run name policy jobs algo json =
    let jobs = check_jobs jobs in
    let e = entry_of_name name in
    let p = resolve_policy e policy in
    let q = Paper.program e in
    let g = Paper.graph e in
    let space = e.Paper.space in
    let cache = Secpol.Cache.create () in
    let analyze = Analyze.config ~jobs ~cache ~algo space in
    let pool_runs = ref [] in
    let refined = ref [] in
    let note (t : Analyze.telemetry) =
      pool_runs := t.Analyze.pool :: !pool_runs;
      match t.Analyze.refine with
      | Some r -> refined := r :: !refined
      | None -> ()
    in
    let t =
      Tabulate.create ~header:[ "mechanism"; "completeness"; "sound"; "avg leak (bits)" ]
    in
    let rows = ref [] in
    let add label m =
      (* The exhaustive soundness check is the expensive cell: route it
         through the Analyze facade (engine pool + chosen algorithm).
         Verdicts are bit-identical to the sequential Soundness.check
         whatever --jobs or --algo is. *)
      let verdict, stats = Analyze.soundness analyze p m in
      note stats;
      let sound =
        match verdict with
        | Soundness.Sound -> "yes"
        | Soundness.Unsound _ -> "NO"
      in
      let ratio = Analyze.ratio analyze ~q m in
      let leak = (Leakage.of_mechanism p m space).Leakage.avg_bits in
      rows :=
        Json.Obj
          [
            ("mechanism", Json.String label);
            ("completeness", Json.String (Printf.sprintf "%.4f" ratio));
            ("sound", Json.Bool (verdict = Soundness.Sound));
            ("avg-leak-bits", Json.String (Printf.sprintf "%.3f" leak));
          ]
        :: !rows;
      Tabulate.add_row t
        [
          label;
          Printf.sprintf "%.0f%%" (100.0 *. ratio);
          sound;
          Printf.sprintf "%.3f" leak;
        ]
    in
    add "program itself" (Mechanism.of_program q);
    List.iter
      (fun mode -> add (Dynamic.mode_name mode) (Dynamic.mechanism (Dynamic.config ~mode p) g))
      Dynamic.all_modes;
    add "static (certify)" (Certify.mechanism ~policy:p e.Paper.prog);
    let mx, mx_stats = Analyze.maximal analyze p q in
    note mx_stats;
    add (Printf.sprintf "maximal (%s)" (Analyze.algo_name algo)) mx;
    if json then
      print_endline
        (Json.render
           (Json.Obj
              [
                ("program", Json.String e.Paper.name);
                ("policy", Json.String (Policy.name p));
                ("algo", Json.String (Analyze.algo_name algo));
                ("jobs", Json.Int jobs);
                ("rows", Json.List (List.rev !rows));
              ]))
    else
      Tabulate.print
        ~title:(Printf.sprintf "%s under %s" e.Paper.name (Policy.name p))
        t;
    (match !refined with
    | [] -> ()
    | rs ->
        let runs = List.fold_left (fun a r -> a + r.Secpol.Refine.runs) 0 rs in
        let saved = List.fold_left (fun a r -> a + r.Secpol.Refine.saved) 0 rs in
        Format.eprintf
          "refine: %d refined pass(es): %d run(s), %d skipped by the \
           I-kernel partition@."
          (List.length rs) runs saved);
    if jobs > 1 then begin
      let tasks, steals, idle =
        List.fold_left
          (fun (a, b, c) s ->
            let t, st, i = Pool.total s in
            (a + t, b + st, c + i))
          (0, 0, 0) !pool_runs
      in
      Format.eprintf
        "engine: %d pool run(s) on %d domain(s): %d task(s), %d steal(s), %d \
         idle probe(s)@."
        (List.length !pool_runs) jobs tasks steals idle
    end
  in
  Cmd.v
    (Cmd.info "measure"
       ~doc:
         "Exhaustively measure every mechanism for a corpus program. The \
          soundness and maximal-yardstick cells run through the unified \
          Secpol.Analyze facade; pick the algorithm with --algo.")
    Term.(const run $ program_arg $ policy_arg $ jobs_arg $ algo_arg $ json_arg)

(* --- leak ------------------------------------------------------------------ *)

let leak_cmd =
  let run name policy =
    let e = entry_of_name name in
    let p = resolve_policy e policy in
    let q = Paper.program e in
    Printf.printf "%s under %s, uniform inputs on %s\n" e.Paper.name
      (Policy.name p)
      (Format.asprintf "%a" Secpol_core.Space.pp e.Paper.space);
    let report view label =
      let r = Leakage.of_program ~view p q e.Paper.space in
      Format.printf "%-22s %a@." label Leakage.pp r
    in
    report `Value "values only:";
    report `Timed "with running time:"
  in
  Cmd.v
    (Cmd.info "leak"
       ~doc:"Measure a program's information leakage in bits, with and \
             without observable running time")
    Term.(const run $ program_arg $ policy_arg)

(* --- plan ------------------------------------------------------------------ *)

let plan_cmd =
  let run name policy =
    let e = entry_of_name name in
    let p = resolve_policy e policy in
    let r = Secpol.Release.plan ~policy:p ~space:e.Paper.space e.Paper.prog in
    Printf.printf "program:  %s\npolicy:   %s\n" e.Paper.name (Policy.name p);
    Printf.printf "decision: %s\n" (Secpol.Release.route_name r.Secpol.Release.route);
    Printf.printf "serves:   %.0f%% (best possible %.0f%%)\n"
      (100.0 *. r.Secpol.Release.completeness)
      (100.0 *. r.Secpol.Release.maximal);
    List.iter (Printf.printf "  - %s\n") r.Secpol.Release.notes
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Decide how to release a program under a policy: ship bare, guard \
          halts, monitor, or refuse")
    Term.(const run $ program_arg $ policy_arg)

(* --- synthesize ------------------------------------------------------------ *)

let synthesize_cmd =
  let run name policy =
    let e = entry_of_name name in
    let p = resolve_policy e policy in
    let module Search = Secpol_transform.Search in
    let r = Search.search ~policy:p ~space:e.Paper.space e.Paper.prog in
    let t = Tabulate.create ~header:[ "candidate"; "serves" ] in
    List.iter
      (fun c ->
        Tabulate.add_row t
          [ c.Search.label; Printf.sprintf "%.0f%%" (100.0 *. c.Search.ratio) ])
      r.Search.candidates;
    Tabulate.print
      ~title:(Printf.sprintf "%s under %s" e.Paper.name (Policy.name p))
      t;
    List.iter
      (fun (label, why) -> Printf.printf "discarded %-24s %s\n" label why)
      r.Search.discarded;
    Printf.printf
      "\njoin of sound candidates serves %.0f%%; brute-force maximal serves %.0f%%\n"
      (100.0 *. r.Search.best_ratio)
      (100.0 *. r.Search.maximal_ratio);
    if r.Search.best_ratio +. 1e-9 < r.Search.maximal_ratio then
      print_endline
        "(the remaining gap is Theorem 4 territory: no transform sequence in\n\
        \ the pool closes it)"
  in
  Cmd.v
    (Cmd.info "synthesize"
       ~doc:
         "Search transform sequences for the most complete sound mechanism \
          (Section 4's recipe, bounded)")
    Term.(const run $ program_arg $ policy_arg)

(* --- lint ------------------------------------------------------------------ *)

let lint_cmd =
  let module Lint = Secpol_staticflow.Lint in
  let module Metrics = Secpol_trace.Metrics in
  let module Json = Lint.Json in
  let run name policy format json =
    let format = output_format json format in
    let e = entry_of_name name in
    let p = resolve_policy e policy in
    match Policy.allowed_indices p with
    | None ->
        prerr_endline "linting needs an allow(...) policy";
        exit 2
    | Some allowed ->
        let src, prog = spanned_prog e in
        let report = Lint.check ~prog ~allowed (Compile.compile prog) in
        (* The summary goes through the shared metrics registry, so the
           linter's counters render exactly like every other monitored
           report's. *)
        let metrics = Metrics.create () in
        Metrics.incr (Metrics.counter metrics "lint/programs");
        if report.Lint.certified then
          Metrics.incr (Metrics.counter metrics "lint/certified");
        List.iter
          (fun (f : Lint.finding) ->
            Metrics.incr
              (Metrics.counter metrics
                 (Printf.sprintf "lint/%s/%s"
                    (Lint.severity_name f.Lint.severity)
                    (Lint.rule_name f.Lint.rule))))
          report.Lint.findings;
        (match format with
        | `Json ->
            let js =
              match Lint.to_json report with
              | Json.Obj fields ->
                  Json.Obj (fields @ [ ("metrics", Metrics.to_json metrics) ])
              | v -> v
            in
            print_endline (Json.render js)
        | `Text ->
            let lines = String.split_on_char '\n' src in
            List.iteri
              (fun i l -> if l <> "" || i < List.length lines - 1 then
                  Printf.printf "%3d | %s\n" (i + 1) l)
              lines;
            print_newline ();
            Format.printf "%a@." Lint.pp_report report;
            Format.printf "@.%a@." Metrics.pp metrics);
        exit (if report.Lint.certified then 0 else 1)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically lint a program for information-flow violations, with \
          source-span witness chains. Exits 0 when certified, 1 on \
          violations, 2 on usage errors.")
    Term.(const run $ program_arg $ policy_arg $ format_arg $ json_arg)

(* --- chaos ----------------------------------------------------------------- *)

let chaos_cmd =
  let module Sweep = Secpol_fault.Sweep in
  let module Crash = Secpol_fault.Crash in
  let module Dist = Secpol_dist.Sweep in
  let module Serverchaos = Secpol_server.Chaos in
  let module Harness = Secpol_fault.Harness in
  let run program mode seeds base_seed horizon retries crash crash_points
      snapshot_every dist server format json jobs trace trace_format =
    let jobs = check_jobs jobs in
    let format = output_format json format in
    let entries =
      match program with None -> Paper.all | Some name -> [ entry_of_name name ]
    in
    if (if dist then 1 else 0) + (if crash then 1 else 0)
       + (if server then 1 else 0)
       > 1
    then begin
      prerr_endline "--dist, --crash and --server are separate sweeps; pick one";
      exit 2
    end;
    let code =
      with_sink trace trace_format (fun sink ->
          let report =
            if server then
              Serverchaos.run ~entries ~mode ~seeds ~base_seed ~sink ~jobs ()
            else if dist then
              Dist.run ~entries ~mode ~seeds ~base_seed ~sink ~jobs ()
            else if crash then
              Crash.run ~entries ~mode ~crash_points ~base_seed
                ~snapshot_every ~sink ~jobs ()
            else
              Sweep.run ~entries ~mode ~seeds ~base_seed ~horizon ~retries
                ~sink ~jobs ()
          in
          report_pool report.Harness.pool;
          (match format with
          | `Json -> print_endline (Harness.to_json_string report)
          | `Text -> Format.printf "%a" Harness.pp report);
          if report.Harness.ok then 0 else 1)
    in
    exit code
  in
  let crash =
    let doc =
      "Run the crash-recovery sweep instead: kill journaled runs at every \
       crash point, tamper with the media, and verify every resume is \
       bit-identical to the uninterrupted run or degrades to \xce\x9b/recovery."
    in
    Arg.(value & flag & info [ "crash" ] ~doc)
  in
  let dist =
    let doc =
      "Run the distributed sweep instead: split runs across seeded \
       shard-kill / network-fault / coordinator-timeout plans and verify \
       zero fail-open merges, with undisturbed runs bit-identical to the \
       guarded single enforcer."
    in
    Arg.(value & flag & info [ "dist" ] ~doc)
  in
  let server =
    let doc =
      "Run the enforcement-service sweep instead: drive seeded client \
       misbehaviour (disconnects, slowloris, malformed frames, overload \
       bursts) and engine kills against an in-process service and verify \
       every request is answered in E \xe2\x88\xaa F — no fail-open grant, \
       no silence."
    in
    Arg.(value & flag & info [ "server" ] ~doc)
  in
  let crash_points =
    let doc = "Crash points per (program, policy, input) case (with --crash)." in
    Arg.(value & opt int 50 & info [ "crash-points" ] ~docv:"N" ~doc)
  in
  let snapshot_every =
    let doc = "Snapshot interval of the journaled runs (with --crash)." in
    Arg.(
      value
      & opt int Crash.default_snapshot_every
      & info [ "snapshot-every" ] ~docv:"N" ~doc)
  in
  let program =
    let doc =
      "Corpus program name or .spl path; the whole corpus when omitted."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)
  in
  let seeds =
    let doc = "Number of seeded fault plans per (program, policy) pair." in
    Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let horizon =
    let doc = "Fault points strike at steps below this bound." in
    Arg.(value & opt int 24 & info [ "horizon" ] ~docv:"STEPS" ~doc)
  in
  let retries =
    let doc = "Supervisor retry budget (transient faults clear on retry)." in
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Differential fault-injection sweep: run monitors under seeded \
          fault plans and verify every failure lands in a violation notice \
          (fail-secure), never in a disallowed grant (fail-open). Exits 0 \
          when fail-secure, 1 on a fail-open or clean-run mismatch, 2 on \
          usage errors.")
    Term.(
      const run $ program $ mode_arg $ seeds $ seed_arg $ horizon $ retries
      $ crash $ crash_points $ snapshot_every $ dist $ server $ format_arg
      $ json_arg $ jobs_arg $ trace_arg $ trace_format_arg)

(* --- serve / client -------------------------------------------------------- *)

module SDaemon = Secpol_server.Daemon
module SEngine = Secpol_server.Engine
module SStore = Secpol_server.Store
module SClient = Secpol_server.Client
module SLoadgen = Secpol_server.Loadgen
module STop = Secpol_server.Top
module SMetrics = Secpol_trace.Metrics
module LJson = Secpol_staticflow.Lint.Json

let socket_arg =
  let doc = "Unix-domain socket path of the enforcement service." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc =
    "TCP endpoint of the enforcement service, e.g. 127.0.0.1:7070 (when \
     serving, port 0 lets the kernel pick; the bound address is printed)."
  in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let address_of socket tcp =
  match (socket, tcp) with
  | Some _, Some _ ->
      prerr_endline "--socket and --tcp are exclusive; pick one";
      exit 2
  | Some path, None -> SDaemon.Unix_path path
  | None, Some hostport -> (
      match String.rindex_opt hostport ':' with
      | Some i -> (
          let host = String.sub hostport 0 i in
          let port =
            String.sub hostport (i + 1) (String.length hostport - i - 1)
          in
          match int_of_string_opt port with
          | Some port when host <> "" && port >= 0 -> SDaemon.Tcp (host, port)
          | _ ->
              prerr_endline "--tcp expects HOST:PORT, e.g. 127.0.0.1:7070";
              exit 2)
      | None ->
          prerr_endline "--tcp expects HOST:PORT, e.g. 127.0.0.1:7070";
          exit 2)
  | None, None ->
      prerr_endline "need --socket PATH or --tcp HOST:PORT";
      exit 2

let session_arg =
  let doc = "Session name on the service." in
  Arg.(value & opt string "cli" & info [ "session" ] ~docv:"NAME" ~doc)

(* Like [address_of], but both-omitted means "no metrics plane". *)
let metrics_address_of msocket mtcp =
  match (msocket, mtcp) with
  | None, None -> None
  | _ -> Some (address_of msocket mtcp)

let metrics_socket_arg =
  let doc = "Serve GET /metrics and /healthz on this Unix-domain socket." in
  Arg.(
    value & opt (some string) None & info [ "metrics-socket" ] ~docv:"PATH" ~doc)

let metrics_tcp_arg =
  let doc =
    "Serve GET /metrics (Prometheus text) and /healthz on this TCP endpoint, \
     e.g. 127.0.0.1:9464 (port 0 lets the kernel pick; the bound address is \
     printed)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-tcp" ] ~docv:"HOST:PORT" ~doc)

let serve_cmd =
  let run socket tcp msocket mtcp store capacity exec_budget frame_deadline
      deadline_ms jobs trace trace_format =
    let address = address_of socket tcp in
    let metrics_address = metrics_address_of msocket mtcp in
    let jobs = check_jobs jobs in
    if capacity < 1 then begin
      prerr_endline "--capacity must be at least 1";
      exit 2
    end;
    let config =
      {
        SEngine.default_config with
        SEngine.capacity;
        exec_budget;
        frame_deadline;
        default_deadline_us = deadline_ms * 1000;
        jobs;
      }
    in
    let store = Option.map SStore.dir store in
    let code =
      with_sink trace trace_format (fun sink ->
          (try
             SDaemon.serve ~config ~sink ?store
               ~ready:(fun a ->
                 Printf.printf "secpol serve: listening on %s\n%!"
                   (SDaemon.address_to_string a))
               ?metrics_address
               ~metrics_ready:(fun a ->
                 Printf.printf "secpol serve: metrics on %s\n%!"
                   (SDaemon.address_to_string a))
               address
           with Unix.Unix_error (e, fn, arg) ->
             Printf.eprintf "cannot serve: %s: %s %s\n" fn
               (Unix.error_message e) arg;
             exit 2);
          0)
    in
    exit code
  in
  let store =
    let doc =
      "Durable state directory (session manifests and journals survive \
       restarts); an in-memory store when omitted."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let capacity =
    let doc = "Admission queue bound; requests beyond it are shed \xce\x9b/overload." in
    Arg.(
      value
      & opt int SEngine.default_config.SEngine.capacity
      & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let exec_budget =
    let doc = "Queued requests executed per scheduling round." in
    Arg.(
      value
      & opt int SEngine.default_config.SEngine.exec_budget
      & info [ "exec-budget" ] ~docv:"N" ~doc)
  in
  let frame_deadline =
    let doc = "Seconds a partially written frame may stall before the \
               connection is refused (slowloris)." in
    Arg.(
      value
      & opt float SEngine.default_config.SEngine.frame_deadline
      & info [ "frame-deadline" ] ~docv:"SECONDS" ~doc)
  in
  let deadline_ms =
    let doc = "Default per-request deadline in milliseconds, applied when a \
               request does not carry its own." in
    Arg.(
      value
      & opt int (SEngine.default_config.SEngine.default_deadline_us / 1000)
      & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the enforcement service: a long-lived daemon answering \
          enforce requests over a Unix or TCP socket, with per-request \
          deadlines, a bounded admission queue that sheds \xce\x9b/overload \
          under load, and graceful drain on SIGTERM. With --store, \
          journaled sessions survive crash-restart. With --metrics-tcp or \
          --metrics-socket, a second listener serves GET /metrics \
          (Prometheus text) and GET /healthz, and keeps answering through \
          drain.")
    Term.(
      const run $ socket_arg $ tcp_arg $ metrics_socket_arg $ metrics_tcp_arg
      $ store $ capacity $ exec_budget $ frame_deadline $ deadline_ms
      $ jobs_arg $ trace_arg $ trace_format_arg)

(* The service's stats payload is Metrics JSON; render it as the same
   kind of table every other report uses. Falls back to the raw payload
   if a newer/older daemon sends a shape this build cannot parse. *)
let render_stats_table body =
  match Result.bind (LJson.parse body) SMetrics.snapshot_of_json with
  | Error m ->
      Printf.eprintf "unparseable stats payload (%s); raw JSON follows\n" m;
      print_endline body
  | Ok snap ->
      let t = Tabulate.create ~header:[ "metric"; "kind"; "value" ] in
      List.iter
        (fun (name, stat) ->
          match (stat : SMetrics.stat) with
          | SMetrics.Counter c ->
              Tabulate.add_row t [ name; "counter"; string_of_int c ]
          | SMetrics.Gauge g ->
              Tabulate.add_row t [ name; "gauge"; string_of_int g ]
          | SMetrics.Histogram s ->
              Tabulate.add_row t
                [
                  name;
                  "histogram";
                  Printf.sprintf "n=%d min=%d p50=%d p99=%d max=%d"
                    s.SMetrics.n s.SMetrics.min
                    (STop.percentile s 0.50)
                    (STop.percentile s 0.99)
                    s.SMetrics.max;
                ])
        snap;
      Tabulate.print t

let client_cmd =
  let run socket tcp action program session policy mode journaled inputs
      request_id deadline_ms requests window retries stats_json =
    let address = address_of socket tcp in
    let with_session () =
      match program with
      | None ->
          prerr_endline "enforce and load need PROGRAM";
          exit 2
      | Some name ->
          let e = entry_of_name name in
          let p = resolve_policy e policy in
          let spec =
            try SLoadgen.session_spec ~session ~mode ~journaled ~policy:p ()
            with Invalid_argument _ ->
              prerr_endline "the service needs an allow(...) policy";
              exit 2
          in
          (e, spec)
    in
    let c =
      try SClient.connect ~retries ~retry_delay:0.1 address
      with Unix.Unix_error (e, fn, arg) ->
        Printf.eprintf "cannot connect: %s: %s %s\n" fn (Unix.error_message e)
          arg;
        exit 2
    in
    let open_session spec =
      match SClient.open_session c spec with
      | Ok () -> ()
      | Error m ->
          prerr_endline ("session refused: " ^ m);
          exit 1
    in
    let show = function
      | Ok reply ->
          show_enforce_reply reply;
          0
      | Error m ->
          prerr_endline ("refused: " ^ m);
          1
    in
    let code =
      try
        match action with
        | `Enforce ->
            let e, spec = with_session () in
            let a =
              match inputs with
              | Some s -> parse_inputs s
              | None ->
                  prerr_endline "enforce needs --inputs";
                  exit 2
            in
            check_arity e a;
            open_session spec;
            let deadline_us =
              if deadline_ms < 0 then -1 else deadline_ms * 1000
            in
            show
              (SClient.enforce c ~deadline_us ~session ~request_id
                 ~program:e.Paper.name a)
        | `Resume -> show (SClient.resume c ~session ~request_id)
        | `Stats -> (
            match SClient.stats c with
            | Ok body ->
                if stats_json then print_endline body
                else render_stats_table body;
                0
            | Error m ->
                prerr_endline ("refused: " ^ m);
                1)
        | `Drain -> (
            match SClient.drain c with
            | Ok outstanding ->
                Printf.printf "draining; %d outstanding\n" outstanding;
                0
            | Error m ->
                prerr_endline ("refused: " ^ m);
                1)
        | `Load ->
            let e, spec = with_session () in
            let r = SLoadgen.run_client ~requests ~window ~client:c ~spec ~entry:e () in
            Format.printf "%a" SLoadgen.pp r;
            if r.SLoadgen.fail_open = 0 then 0 else 1
      with
      | SClient.Protocol_error m ->
          prerr_endline ("protocol error: " ^ m);
          1
      | Failure m ->
          prerr_endline m;
          1
    in
    SClient.close c;
    exit code
  in
  let action =
    let doc =
      "What to ask the service: $(b,enforce) one request, $(b,resume) a \
       crashed journaled request, $(b,stats) for metrics JSON, $(b,drain) \
       for graceful shutdown, or $(b,load) to run the pipelined load \
       generator."
    in
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("enforce", `Enforce);
                  ("resume", `Resume);
                  ("stats", `Stats);
                  ("drain", `Drain);
                  ("load", `Load);
                ]))
          None
      & info [] ~docv:"ACTION" ~doc)
  in
  let program =
    let doc = "Corpus program name (for enforce and load)." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"PROGRAM" ~doc)
  in
  let inputs =
    let doc = "Comma-separated integer inputs, e.g. 3,0 (for enforce)." in
    Arg.(
      value
      & opt (some string) None
      & info [ "i"; "inputs" ] ~docv:"INPUTS" ~doc)
  in
  let journaled =
    let doc =
      "Open the session journaled: every run is durable and resumable \
       after a crash."
    in
    Arg.(value & flag & info [ "journaled" ] ~doc)
  in
  let request_id =
    let doc = "Client-chosen request id (echoed in the reply; the resume \
               key for journaled runs)." in
    Arg.(value & opt int 0 & info [ "request-id" ] ~docv:"N" ~doc)
  in
  let deadline_ms =
    let doc = "Per-request deadline in milliseconds; 0 is already expired \
               (always \xce\x9b/overload), negative means the server \
               default." in
    Arg.(value & opt int (-1) & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let requests =
    let doc = "Requests to send (for load)." in
    Arg.(value & opt int 2000 & info [ "requests" ] ~docv:"N" ~doc)
  in
  let window =
    let doc = "Requests kept outstanding (for load)." in
    Arg.(value & opt int 32 & info [ "window" ] ~docv:"N" ~doc)
  in
  let retries =
    let doc = "Connection attempts to a daemon still booting." in
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let stats_json =
    let doc =
      "Print the stats payload as the service's raw JSON instead of a \
       table (for stats)."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running enforcement service: enforce a request, resume \
          a crashed journaled run, fetch stats, ask for drain, or drive \
          the load generator against it.")
    Term.(
      const run $ socket_arg $ tcp_arg $ action $ program $ session_arg
      $ policy_arg $ mode_arg $ journaled $ inputs $ request_id $ deadline_ms
      $ requests $ window $ retries $ stats_json)

(* --- top -------------------------------------------------------------------- *)

let top_cmd =
  let run socket tcp from interval frames once no_clear =
    if interval <= 0. then begin
      prerr_endline "--interval must be positive";
      exit 2
    end;
    if frames < 0 then begin
      prerr_endline "--frames must be non-negative";
      exit 2
    end;
    let frames = if once then 1 else frames in
    let clear = if no_clear then "" else "\x1b[2J\x1b[H" in
    let show prev snap =
      print_string clear;
      print_string (STop.render ?prev ~interval snap);
      flush stdout
    in
    let code =
      match from with
      | Some path ->
          (* Replay: one frame per JSONL line, rates from consecutive
             frames — the same renderer the live mode drives, testable
             without a daemon. *)
          let contents =
            try In_channel.with_open_bin path In_channel.input_all
            with Sys_error m ->
              prerr_endline m;
              exit 2
          in
          (match STop.frames_of_jsonl contents with
          | Error m ->
              Printf.eprintf "%s: %s\n" path m;
              2
          | Ok fs ->
              let rec go prev shown = function
                | [] -> 0
                | _ when frames > 0 && shown >= frames -> 0
                | f :: rest ->
                    show prev f;
                    go (Some f) (shown + 1) rest
              in
              go None 0 fs)
      | None ->
          let address = address_of socket tcp in
          let rec go prev shown =
            match STop.scrape_snapshot address with
            | Error m ->
                prerr_endline ("scrape failed: " ^ m);
                1
            | Ok snap ->
                show prev snap;
                if frames > 0 && shown + 1 >= frames then 0
                else begin
                  Unix.sleepf interval;
                  go (Some snap) (shown + 1)
                end
          in
          go None 0
    in
    exit code
  in
  let socket =
    let doc = "Unix-domain socket path of the daemon's $(i,metrics) plane." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let tcp =
    let doc =
      "TCP endpoint of the daemon's $(i,metrics) plane, e.g. 127.0.0.1:9464."
    in
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)
  in
  let from =
    let doc =
      "Replay recorded frames instead of scraping: one JSON metrics \
       snapshot per line (the format `secpol client stats --json` and the \
       trace sinks emit)."
    in
    Arg.(value & opt (some string) None & info [ "from" ] ~docv:"FILE" ~doc)
  in
  let interval =
    let doc = "Seconds between scrapes (and the rate window)." in
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECONDS" ~doc)
  in
  let frames =
    let doc = "Stop after $(docv) frames; 0 means until interrupted." in
    Arg.(value & opt int 0 & info [ "frames" ] ~docv:"N" ~doc)
  in
  let once =
    let doc = "Render a single frame and exit (same as --frames 1)." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let no_clear =
    let doc = "Do not clear the screen between frames (for piping)." in
    Arg.(value & flag & info [ "no-clear" ] ~doc)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a daemon's /metrics: one row per session \
          with request rate, p50/p99 latency, sheds, verdict-cache hits \
          and breaker state. Scrapes the metrics address every --interval \
          seconds, or replays recorded JSONL frames with --from. Exits 0, \
          1 when a scrape fails, 2 on usage errors.")
    Term.(
      const run $ socket $ tcp $ from $ interval $ frames $ once $ no_clear)

(* --- explain ---------------------------------------------------------------- *)

let explain_cmd =
  let run program inputs mode policy from =
    let explain_events ?allowed events =
      match Provenance.explain ?allowed events with
      | Ok ex ->
          Format.printf "%a@." Provenance.pp ex;
          0
      | Error m ->
          prerr_endline ("cannot explain: " ^ m);
          1
    in
    let code =
      match from with
      | Some path ->
          let contents =
            try In_channel.with_open_bin path In_channel.input_all
            with Sys_error m ->
              prerr_endline m;
              exit 2
          in
          (match Event.decode_lines contents with
          | Ok events ->
              let allowed =
                Option.bind policy Policy.allowed_indices
              in
              explain_events ?allowed events
          | Error m ->
              Printf.eprintf "%s: %s\n" path m;
              2)
      | None -> (
          match (program, inputs) with
          | Some name, Some inputs ->
              let e = entry_of_name name in
              let p = resolve_policy e policy in
              let a = parse_inputs inputs in
              check_arity e a;
              (match Policy.allowed_indices p with
              | None ->
                  prerr_endline "explain needs an allow(...) policy";
                  2
              | Some allowed ->
                  let g = Paper.graph e in
                  let sink = Sink.memory () in
                  Sink.emit sink
                    (Event.run_header ~program:e.Paper.name
                       ~arity:g.Graph.arity ~mode:(Dynamic.mode_name mode)
                       ~allowed ~inputs:a);
                  let r =
                    Run.run (Run.config ~policy:p ~mode ~trace:sink ()) g a
                  in
                  Sink.emit sink (Event.of_reply r);
                  (match r.Mechanism.response with
                  | Mechanism.Granted v ->
                      Format.printf "granted: %a — nothing to explain@."
                        Value.pp v;
                      0
                  | _ -> explain_events (Sink.events sink)))
          | _ ->
              prerr_endline
                "explain needs PROGRAM and --inputs, or --from TRACE";
              2)
    in
    exit code
  in
  let program =
    let doc =
      "Corpus program name or .spl path (omit when reading --from)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)
  in
  let inputs =
    let doc = "Comma-separated integer inputs, e.g. 3,0." in
    Arg.(
      value
      & opt (some string) None
      & info [ "i"; "inputs" ] ~docv:"INPUTS" ~doc)
  in
  let from =
    let doc =
      "Explain a previously recorded JSONL trace (written by --trace) \
       instead of running anything."
    in
    Arg.(value & opt (some string) None & info [ "from" ] ~docv:"TRACE" ~doc)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain a violation verdict: run the monitor (or read a recorded \
          trace) and reconstruct, for each disallowed input coordinate, the \
          chain of boxes that carried it from the input to the condemning \
          box — data flow for \xce\x9b/explicit, control flow for \
          \xce\x9b/implicit, the about-to-test decision for \xce\x9b/timed. \
          Exits 0 when the run was granted or the denial explained, 1 when \
          there is nothing explainable, 2 on usage errors.")
    Term.(const run $ program $ inputs $ mode_arg $ policy_arg $ from)

(* --- fmt ------------------------------------------------------------------ *)

let fmt_cmd =
  let run path =
    match Secpol_lang.Source.load path with
    | Ok prog -> print_string (Secpol_lang.Source.to_source prog)
    | Error m ->
        Printf.eprintf "%s: %s\n" path m;
        exit 2
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"A .spl source file.")
  in
  Cmd.v
    (Cmd.info "fmt" ~doc:"Parse a .spl file and print it re-formatted")
    Term.(const run $ path)

let () =
  let info =
    Cmd.info "secpol" ~version:"1.0.0"
      ~doc:"Security policies, protection mechanisms, soundness - Jones & Lipton (1975), executable"
  in
  (* Exit-code contract: 0 success/certified, 1 violations, 2 usage errors.
     cmdliner reports bad option values as Exit.cli_error (124); fold that
     into 2 like the hand-rolled usage exits above. *)
  let code =
    Cmd.eval ~term_err:2
      (Cmd.group info
         [ list_cmd; show_cmd; run_cmd; enforce_cmd; resume_cmd; explain_cmd; certify_cmd; lint_cmd; measure_cmd; leak_cmd; plan_cmd; synthesize_cmd; chaos_cmd; serve_cmd; client_cmd; top_cmd; fmt_cmd ])
  in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
