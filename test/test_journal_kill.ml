(* Process death on the real on-disk layout. A forked child loops journaled
   runs on one directory medium — ex7, and loop-then-secretfree with x0 in
   the hundreds, whose runs span checkpoints and compactions — and the
   parent SIGKILLs it after seeded delays. After every kill a fresh handle
   resumes: it must recover, bit-identically to the clean monitor, the run
   the child was in or the one before it.

   This executable starts no domains: Unix.fork refuses once a second
   domain has ever run. *)

open Util
module Dynamic = Secpol_taint.Dynamic
module Paper = Secpol_corpus.Paper_programs
module Media = Secpol_journal.Media
module Runner = Secpol_journal.Runner

let kills = 60
let seed = 1975

let resolve (h : Runner.header) =
  match Paper.find h.Runner.program_ref with
  | e -> Ok (Paper.graph e)
  | exception Not_found -> Error ("unknown program " ^ h.Runner.program_ref)

(* The k-th run of the sequence: every third a loop of a few hundred
   boxes, the rest ex7. *)
let workload k =
  if k mod 3 = 0 then
    ( Paper.loop_then_secretfree,
      Policy.allow [ 0; 1 ],
      ints [ 100 + (k * 37 mod 400); 4 + (k mod 5) ] )
  else (Paper.ex7, Policy.allow [ 0 ], ints [ k mod 4; k / 4 mod 4 ])

let run_journaled dir k =
  let entry, policy, a = workload k in
  let cfg = Dynamic.config ~fuel:4096 ~mode:Dynamic.Surveillance policy in
  let media = Media.dir dir in
  ignore (Runner.run ~media ~program_ref:entry.Paper.name cfg (Paper.graph entry) a);
  Media.close media

(* Announce each run on [w] before starting it, then run it; forever. *)
let child dir w k0 =
  let rec loop k =
    let line = Bytes.of_string (string_of_int k ^ "\n") in
    ignore (Unix.write w line 0 (Bytes.length line));
    run_journaled dir k;
    loop (k + 1)
  in
  try loop k0 with _ -> Unix._exit 2

let announced r =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read r chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ();
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")
  |> List.map int_of_string

let test_sigkill_resume () =
  with_scratch_dir (fun root ->
      let dir = Filename.concat root "medium" in
      (* Run 0 completes before any kill, so every resume finds a journal. *)
      run_journaled dir 0;
      let rng = Random.State.make [| seed |] in
      let last = ref 0 and mid_run = ref 0 and compactions = ref 0 in
      let size () = (Unix.stat (Filename.concat dir Media.journal_file)).Unix.st_size in
      for kill = 1 to kills do
        let before = size () in
        let r, w = Unix.pipe ~cloexec:true () in
        match Unix.fork () with
        | 0 ->
            Unix.close r;
            child dir w (!last + 1)
        | pid ->
            Unix.close w;
            Unix.sleepf (0.002 +. Random.State.float rng 0.018);
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            let started = announced r in
            Unix.close r;
            let in_flight = List.fold_left max !last started in
            if size () < before then incr compactions;
            let media = Media.dir dir in
            (match Runner.resume ~resolve ~media () with
            | Error f ->
                Alcotest.failf "kill %d: resume refused: %s" kill
                  (Runner.failure_message f)
            | Ok res ->
                let h = res.Runner.header in
                let candidates = [ in_flight; in_flight - 1 ] in
                let matches k =
                  let entry, _, a = workload k in
                  entry.Paper.name = h.Runner.program_ref && a = h.Runner.inputs
                in
                if not (List.exists matches candidates) then
                  Alcotest.failf "kill %d: recovered %s on inputs no recent run used" kill
                    h.Runner.program_ref;
                let g = Paper.graph (Paper.find h.Runner.program_ref) in
                let clean =
                  Dynamic.run (Runner.config_of_header h) g h.Runner.inputs
                in
                if res.Runner.reply <> clean then
                  Alcotest.failf "kill %d: resumed %s, clean monitor %s" kill
                    (show_mech_reply res.Runner.reply) (show_mech_reply clean);
                if not res.Runner.was_complete then incr mid_run);
            Media.close media;
            last := in_flight
      done;
      Printf.printf "%d kills: %d finished mid-run by resume, %d after a compaction\n"
        kills !mid_run !compactions;
      Alcotest.(check bool) "some kills landed mid-run" true (!mid_run > 0);
      Alcotest.(check bool) "some kills followed a compaction" true (!compactions > 0))

let () =
  Alcotest.run "journal-kill"
    [ ("process-death", [ Alcotest.test_case "sigkill-resume" `Quick test_sigkill_resume ]) ]
