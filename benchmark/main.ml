(* One end-to-end benchmark of secpol.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics of one workload; --trace 1
   is the separate traced run that gives the per-layer metrics. Every
   metric is printed by name with its unit; the last line of standard
   output is one JSON object with the machine-readable result. Any reply
   that differs from the oracle exits 1, naming the workload, the request
   and both replies. *)

let workloads = [ "hot-cache"; "cold-monitor"; "durable-journal"; "yardstick" ]

let service name ~seed ~preseed =
  match name with
  | "hot-cache" -> Service.hot_cache ~seed
  | "cold-monitor" -> Service.cold_monitor ~seed
  | _ -> Service.durable_journal ~preseed ~seed ()

let json_number v =
  if not (Float.is_finite v) then failwith "non-finite metric";
  Printf.sprintf "%.17g" v

let print_result ~metrics ~info ~attempted ~failed =
  List.iter (fun (name, v, unit) -> Printf.printf "%-36s %18.6f %s\n" name v unit) (metrics @ info);
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" attempted
    failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 24. and trace = ref 0 in
  let exe = ref "_build/default/bin/secpol_cli.exe" and out = ref "benchmark/out" in
  let corrupt = ref false and preseed = ref Service.default_preseed in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 24)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or the traced per-layer run");
      ("--daemon", Arg.Set_string exe, "PATH the secpol CLI to serve with");
      ("--out", Arg.Set_string out, "DIR traces and scratch space (default benchmark/out)");
      ("--preseed", Arg.Set_int preseed, "N journaled runs in durable-journal's store at boot (default 4000)");
      ("--corrupt-oracle", Arg.Set corrupt, " falsify one expected reply (harness self-test)");
    ]
  in
  let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload; expected one of " ^ String.concat ", " workloads);
    exit 2
  end;
  if
    !seconds <= 0.
    || (!trace <> 0 && !trace <> 1)
    || !preseed < Service.min_preseed || !preseed > Service.max_preseed
  then begin
    Arg.usage spec usage;
    exit 2
  end;
  if not (Sys.file_exists !exe) then begin
    Printf.eprintf "no daemon binary at %s; build it first (dune build)\n" !exe;
    exit 2
  end;
  Proc.install_signal_handlers ();
  at_exit Proc.cleanup;
  let code =
    try
      Fun.protect ~finally:Proc.cleanup (fun () ->
          Proc.mkdir_p !out;
          let dir = Proc.scratch_dir ~out:!out in
          let seconds = !seconds and seed = !seed and exe = !exe in
          (if !trace = 1 then begin
             let w, analyze =
               if !workload = "yardstick" then (Yardstick.ladder_stream ~seed, Yardstick.analysis)
               else
                 let w = service !workload ~seed ~preseed:!preseed in
                 (w, Ladder.corpus_analysis w)
             in
             let trace_path = Filename.concat !out ("trace-" ^ !workload ^ ".json") in
             let metrics, info, attempted, failed =
               Ladder.run ~exe ~dir ~seconds ~trace_path ~analyze w
             in
             print_result ~metrics ~info ~attempted ~failed
           end
           else
             let r =
               if !workload = "yardstick" then Yardstick.run ~corrupt:!corrupt ~seed ~seconds ()
               else Service.run ~corrupt:!corrupt ~exe ~dir ~seconds (service !workload ~seed ~preseed:!preseed)
             in
             print_result ~metrics:r.Service.e2e ~info:r.Service.info
               ~attempted:r.Service.attempted ~failed:r.Service.failed);
          0)
    with
    | Service.Mismatch m ->
        Printf.eprintf "oracle mismatch: %s\n%!" m;
        1
    | Link.Lost m ->
        Printf.eprintf "%s: %s\n%!" !workload m;
        1
    | Failure m ->
        Printf.eprintf "%s: %s\n%!" !workload m;
        1
    | Proc.Interrupted ->
        prerr_endline "interrupted";
        130
  in
  exit code
