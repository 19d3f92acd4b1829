(* The durable enforcement runtime: binary codec (round-trips, version
   rejection, truncation), record framing (torn tails vs corruption), media
   semantics, and the journaled runner — kill at every crash point and
   resume bit-identically, replay idempotently, skip stale records, and
   degrade unrecoverable media to Λ/recovery. *)

open Util
module Iset = Secpol_core.Iset
module Dynamic = Secpol_taint.Dynamic
module Paper = Secpol_corpus.Paper_programs
module Codec = Secpol_journal.Codec
module Frame = Secpol_journal.Frame
module Media = Secpol_journal.Media
module Runner = Secpol_journal.Runner
module Guard = Secpol_fault.Guard

let entries = [ Paper.forgetting; Paper.branch_allowed; Paper.direct_flow ]

let resolve (h : Runner.header) =
  match
    List.find_opt (fun (e : Paper.entry) -> e.Paper.name = h.Runner.program_ref) Paper.all
  with
  | Some e -> Ok (Paper.graph e)
  | None -> Error ("unknown " ^ h.Runner.program_ref)

let cfg_of (e : Paper.entry) =
  Dynamic.config ~fuel:2000 ~mode:Dynamic.Surveillance e.Paper.policy

(* --- codec --------------------------------------------------------------- *)

let test_crc32_vectors () =
  (* The IEEE 802.3 check value; any table or reflection bug breaks it. *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Codec.crc32 "123456789");
  Alcotest.(check int) "empty" 0 (Codec.crc32 "");
  Alcotest.(check bool) "sensitive to one bit" true
    (Codec.crc32 "123456789" <> Codec.crc32 "123456788")

let test_value_roundtrip () =
  let values =
    [
      Value.int 0;
      Value.int (-7);
      Value.int max_int;
      Value.int min_int;
      Value.Bool true;
      Value.Str "";
      Value.Str "x\x00y\xff";
      Value.Tuple [ Value.int 1; Value.Tuple [ Value.Bool false ]; Value.Str "s" ];
    ]
  in
  List.iter
    (fun v ->
      let b = Codec.W.create () in
      Codec.write_value b v;
      let r = Codec.R.of_string (Codec.W.contents b) in
      let v' = Codec.read_value r in
      if not (Value.equal v v') then
        Alcotest.failf "value %s did not round-trip" (Value.to_string v);
      Alcotest.(check bool) "consumed everything" true (Codec.R.eof r))
    values

(* A reachable interpreter state: run the machine a pseudo-random number of
   boxes into a pseudo-random corpus run. *)
let reachable_state seed =
  let e = List.nth entries (seed mod List.length entries) in
  let g = Paper.graph e in
  let cfg = cfg_of e in
  let m = Dynamic.prepare cfg g in
  let inputs = List.of_seq (Space.enumerate e.Paper.space) in
  let a = List.nth inputs (seed / 7 mod List.length inputs) in
  match Dynamic.start m a with
  | Error _ -> None
  | Ok st0 ->
      let rec go st k =
        if k = 0 then st
        else
          match Dynamic.step m st with
          | Dynamic.Final _ -> st
          | Dynamic.Step st' -> go st' (k - 1)
      in
      Some (g, go st0 (seed / 31 mod 9))

let prop_image_roundtrip =
  qtest ~count:400 "encode-decode-is-id-on-reachable-states"
    (QCheck.int_range 0 1_000_000) (fun seed ->
      match reachable_state seed with
      | None -> true
      | Some (g, st) -> (
          let im = Dynamic.image st in
          (match Codec.decode_image (Codec.encode_image im) with
          | Ok im' when Dynamic.image_equal im im' -> ()
          | Ok _ -> QCheck.Test.fail_report "decode(encode im) <> im"
          | Error e -> QCheck.Test.fail_report (Codec.error_message e));
          (* And the image really rebuilds the state: rehydrate, reflatten. *)
          match Dynamic.of_image g im with
          | Error m -> QCheck.Test.fail_report ("of_image refused: " ^ m)
          | Ok st' -> Dynamic.image_equal im (Dynamic.image st')))

(* Rehydrated states must also RUN identically, not just compare equal. *)
let prop_rehydrated_runs_identically =
  qtest ~count:200 "of-image-continues-bit-identically"
    (QCheck.int_range 0 1_000_000) (fun seed ->
      match reachable_state seed with
      | None -> true
      | Some (g, st) -> (
          let e = List.nth entries (seed mod List.length entries) in
          let m = Dynamic.prepare (cfg_of e) g in
          let direct = Dynamic.run_to_end m st in
          match Dynamic.of_image g (Dynamic.image st) with
          | Error msg -> QCheck.Test.fail_report msg
          | Ok st' ->
              let resumed = Dynamic.run_to_end m st' in
              if direct = resumed then true
              else QCheck.Test.fail_report "resumed run diverged from direct run"))

let test_version_rejected () =
  match reachable_state 5 with
  | None -> Alcotest.fail "no reachable state"
  | Some (_, st) -> (
      let im = Dynamic.image st in
      match Codec.decode_image (Codec.encode_image ~version:99 im) with
      | Error (Codec.Bad_version { got = 99; want }) ->
          Alcotest.(check int) "wants this build's layout" Codec.format_version want
      | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_message e)
      | Ok _ -> Alcotest.fail "foreign layout version must be rejected")

let test_truncation_rejected () =
  match reachable_state 11 with
  | None -> Alcotest.fail "no reachable state"
  | Some (_, st) ->
      let s = Codec.encode_image (Dynamic.image st) in
      for cut = 0 to String.length s - 1 do
        match Codec.decode_image (String.sub s 0 cut) with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "prefix of %d bytes decoded as an image" cut
      done;
      (match Codec.decode_image (s ^ "x") with
      | Error (Codec.Malformed _) -> ()
      | _ -> Alcotest.fail "trailing bytes must be rejected")

let test_absurd_length_rejected () =
  (* A crafted inputs-array length around 2^61: the naive bound check
     [8 * n <= remaining] wraps and passes, and [Array.init] then blows up
     with an exception that is not a [decode_error]. Decode must instead
     return the typed error that degrades to Λ/recovery. *)
  let b = Codec.W.create () in
  Codec.write_version b;
  Codec.W.int b 0 (* im_node *);
  Codec.W.int b 0 (* im_steps *);
  Codec.W.int b 0x2000_0000_0000_0000 (* im_inputs length *);
  (match Codec.decode_image (Codec.W.contents b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "absurd array length decoded as an image");
  (* Same overflow shape on the scoped-frames count, patched into an
     otherwise valid image (the frame count is the trailing word when the
     frame list is empty). *)
  match reachable_state 5 with
  | None -> Alcotest.fail "no reachable state"
  | Some (_, st) -> (
      let im = Dynamic.image st in
      if im.Dynamic.im_frames <> [] then
        Alcotest.fail "expected a frameless (non-scoped) state";
      let by = Bytes.of_string (Codec.encode_image im) in
      Bytes.set_int64_le by (Bytes.length by - 8) 0x1000_0000_0000_0000L;
      match Codec.decode_image (Bytes.to_string by) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "absurd frame count decoded as an image")

(* --- framing ------------------------------------------------------------- *)

let test_frame_roundtrip () =
  let payloads = [ ""; "a"; String.make 300 '\x00'; "sj"; "\xff\xfe" ] in
  let b = Buffer.create 64 in
  List.iter (Frame.append b) payloads;
  match Frame.scan (Buffer.contents b) with
  | Ok { Frame.records; dropped_bytes } ->
      Alcotest.(check (list string)) "payloads back in order" payloads records;
      Alcotest.(check int) "nothing dropped" 0 dropped_bytes
  | Error e -> Alcotest.failf "clean scan failed: %s" (Codec.error_message e)

let test_frame_torn_tail_dropped () =
  let intact = Frame.frame "first" ^ Frame.frame "second" in
  let torn = intact ^ Frame.frame "third" in
  (* Every strict prefix that cuts into the third frame: torn tail, first
     two records survive. *)
  for cut = String.length intact + 1 to String.length torn - 1 do
    match Frame.scan (String.sub torn 0 cut) with
    | Ok { Frame.records; dropped_bytes } ->
        Alcotest.(check (list string)) "intact prefix survives"
          [ "first"; "second" ] records;
        Alcotest.(check int) "tail accounted" (cut - String.length intact)
          dropped_bytes
    | Error e ->
        Alcotest.failf "cut %d: torn tail must not be an error: %s" cut
          (Codec.error_message e)
  done

let test_frame_corruption_refused () =
  let s = Frame.frame "first" ^ Frame.frame "second" in
  (* Flip one bit of the first payload: complete frame, wrong checksum. *)
  let by = Bytes.of_string s in
  Bytes.set by Frame.header_size
    (Char.chr (Char.code (Bytes.get by Frame.header_size) lxor 1));
  (match Frame.scan (Bytes.to_string by) with
  | Error (Codec.Bad_checksum _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_message e)
  | Ok _ -> Alcotest.fail "bit flip must poison the scan");
  match Frame.scan ("xx" ^ s) with
  | Error (Codec.Bad_magic _) -> ()
  | _ -> Alcotest.fail "non-frame bytes must be Bad_magic"

let test_frame_one () =
  (match Frame.one (Frame.frame "snap") with
  | Ok p -> Alcotest.(check string) "payload" "snap" p
  | Error e -> Alcotest.failf "single frame: %s" (Codec.error_message e));
  (match Frame.one (Frame.frame "a" ^ Frame.frame "b") with
  | Error (Codec.Malformed _) -> ()
  | _ -> Alcotest.fail "two frames are not a snapshot");
  let f = Frame.frame "snap" in
  match Frame.one (String.sub f 0 (String.length f - 1)) with
  | Error (Codec.Truncated _) -> ()
  | _ -> Alcotest.fail "a torn snapshot is unrecoverable (snapshots are atomic)"

(* --- media --------------------------------------------------------------- *)

let test_memory_media () =
  let m = Media.memory () in
  Alcotest.(check bool) "empty before checkpoint" true (Media.load m = None);
  Media.append m "r1";
  Alcotest.(check bool) "journal alone is not loadable" true (Media.load m = None);
  Media.checkpoint m "snap1";
  Alcotest.(check bool) "checkpoint resets journal" true
    (Media.load m = Some ("snap1", ""));
  Media.append m "r2";
  Media.append m "r3";
  Alcotest.(check bool) "appends accumulate" true
    (Media.load m = Some ("snap1", "r2r3"))

let test_dir_media_kill_resume () =
  with_scratch_dir (fun dir ->
      let e = Paper.forgetting in
      let cfg = cfg_of e in
      let a = ints [ 3; 0 ] in
      let clean = Dynamic.run cfg (Paper.graph e) a in
      let media = Media.dir dir in
      (match
         Runner.run ~kill_at:1 ~snapshot_every:2 ~media
           ~program_ref:e.Paper.name cfg (Paper.graph e) a
       with
      | Runner.Killed { at_box; _ } -> Alcotest.(check int) "killed where asked" 1 at_box
      | Runner.Completed _ -> Alcotest.fail "expected the kill to land");
      Media.close media;
      (* A separate handle, as a restarted process would open. *)
      let media' = Media.dir dir in
      (match Runner.resume ~resolve ~media:media' () with
      | Ok res ->
          if res.Runner.reply <> clean then
            Alcotest.fail "resume from disk not bit-identical"
      | Error f -> Alcotest.failf "resume failed: %s" (Runner.failure_message f));
      Media.close media')

(* --- the one-file directory layout --------------------------------------- *)

(* ex7 under allow(0): four boxes, so one run is a checkpoint, four records
   and a verdict, far below the compaction size. *)
let ex7 = Paper.ex7
let ex7_graph = Paper.graph ex7
let ex7_cfg = Dynamic.config ~fuel:4096 ~mode:Dynamic.Surveillance (Policy.allow [ 0 ])
let ex7_clean a = Dynamic.run ex7_cfg ex7_graph a

(* Two runs on one medium, told apart by the inputs in the recovered
   header. *)
let a_prev = ints [ 0; 3 ]
let a_last = ints [ 1; 2 ]

let run_ex7 ?kill_at media a =
  Runner.run ?kill_at ~media ~program_ref:ex7.Paper.name ex7_cfg ex7_graph a

let complete_run dir a =
  let media = Media.dir dir in
  (match run_ex7 media a with
  | Runner.Completed r ->
      if r <> ex7_clean a then Alcotest.fail "journaled run diverged"
  | Runner.Killed _ -> Alcotest.fail "no kill requested");
  Media.close media

let journal_of dir = read_file (Filename.concat dir Media.journal_file)

let resume_dir dir =
  let media = Media.dir dir in
  let r = Runner.resume ~resolve ~media () in
  Media.close media;
  r

(* The two files a run journaled to memory leaves, written as the older
   two-file layout: [snapshot.bin] plus [journal.bin]. *)
let write_legacy dir a =
  let media = Media.memory () in
  ignore (run_ex7 media a);
  match Media.load media with
  | None -> Alcotest.fail "memory run left no snapshot"
  | Some (snapshot, journal) ->
      ignore (Media.mkdir_p dir);
      write_file (Filename.concat dir Media.snapshot_file) snapshot;
      write_file (Filename.concat dir Media.journal_file) journal

(* The whole frames of [s] from [from] on: (offset, total length). *)
let frames_from s from =
  let rec go pos acc =
    if String.length s - pos < Frame.header_size then List.rev acc
    else
      let size =
        Frame.header_size
        + (Int32.to_int (String.get_int32_le s (pos + 2)) land 0xFFFFFFFF)
      in
      if pos + size > String.length s then List.rev acc
      else go (pos + size) ((pos, size) :: acc)
  in
  go from []

let test_frame_checkpoint_layout () =
  let ck = Frame.to_checkpoint (Frame.frame "snap") in
  Alcotest.(check string) "retagged" Frame.checkpoint_magic (String.sub ck 0 2);
  Alcotest.(check string) "round trip" (Frame.frame "snap") (Frame.of_checkpoint ck);
  let s = Frame.frame "r0" ^ ck ^ Frame.frame "r1" in
  let l = Frame.layout s in
  Alcotest.(check (option (pair int int))) "last checkpoint"
    (Some (String.length (Frame.frame "r0"), String.length ck))
    l.Frame.last_checkpoint;
  Alcotest.(check int) "all whole" (String.length s) l.Frame.whole;
  (* A torn checkpoint is a crash artifact, not damage: the walk stops
     before it, and a journal suffix scan drops it. *)
  let torn = Frame.frame "r0" ^ String.sub ck 0 (String.length ck - 1) in
  let l = Frame.layout torn in
  Alcotest.(check bool) "torn checkpoint not adopted" true (l.Frame.last_checkpoint = None);
  Alcotest.(check bool) "torn is not damage" false l.Frame.damaged;
  (match Frame.scan torn with
  | Ok { Frame.records = [ "r0" ]; dropped_bytes } ->
      Alcotest.(check int) "dropped" (String.length ck - 1) dropped_bytes
  | _ -> Alcotest.fail "a torn checkpoint at EOF is a torn tail");
  (match Frame.scan (Frame.frame "r0" ^ ck) with
  | Error (Codec.Bad_magic _) -> ()
  | _ -> Alcotest.fail "a whole checkpoint is no journal record");
  Alcotest.(check bool) "foreign bytes are damage" true
    (Frame.layout (Frame.frame "r0" ^ "xx" ^ String.make 20 'y')).Frame.damaged

(* One barrier per run: appends and checkpoints never wait for the disk,
   the verdict is followed by exactly one fsync, and nothing the run wrote
   is left unsynced when [run] or [resume] returns. *)
let test_one_fsync_per_run () =
  with_scratch_dir (fun root ->
      let dir = Filename.concat root "a/b/req-0" in
      let first = Media.dir dir in
      ignore (run_ex7 first a_prev);
      (* A new medium: journal.bin, plus the entries of journal.bin in
         req-0 and of a, a/b and req-0 in their parents. *)
      Alcotest.(check int) "new medium" 5 (Media.fsyncs first);
      Media.close first;
      for _ = 1 to 3 do
        let media = Media.dir dir in
        ignore (run_ex7 media a_last);
        Alcotest.(check int) "existing medium: one fsync" 1 (Media.fsyncs media);
        Alcotest.(check int) "nothing left unsynced" 0 (Media.pending media);
        Media.close media
      done;
      let killed = Media.dir dir in
      (match run_ex7 ~kill_at:2 killed a_prev with
      | Runner.Killed _ -> ()
      | Runner.Completed _ -> Alcotest.fail "expected the kill to land");
      Alcotest.(check int) "checkpoint and records do not sync" 0 (Media.fsyncs killed);
      Alcotest.(check bool) "they are written" true (Media.pending killed > 0);
      Media.close killed;
      let resumed = Media.dir dir in
      (match Runner.resume ~resolve ~media:resumed () with
      | Ok res ->
          Alcotest.(check bool) "finished the run" false res.Runner.was_complete;
          if res.Runner.reply <> ex7_clean a_prev then Alcotest.fail "resume diverged"
      | Error f -> Alcotest.failf "resume: %s" (Runner.failure_message f));
      Alcotest.(check int) "resume: one fsync" 1 (Media.fsyncs resumed);
      Alcotest.(check int) "resume: nothing unsynced" 0 (Media.pending resumed);
      Media.close resumed;
      let reread = Media.dir dir in
      (match Runner.resume ~resolve ~media:reread () with
      | Ok res -> Alcotest.(check bool) "verdict on the medium" true res.Runner.was_complete
      | Error f -> Alcotest.failf "resume: %s" (Runner.failure_message f));
      Alcotest.(check int) "re-delivery writes nothing" 0 (Media.fsyncs reread);
      Media.close reread)

(* What a medium recovers to, named by the run it came from. *)
let recovered_run dir =
  match resume_dir dir with
  | Error Runner.No_journal -> `Nothing
  | Error f -> `Refused (Runner.failure_message f)
  | Ok res ->
      let a = res.Runner.header.Runner.inputs in
      if res.Runner.reply <> ex7_clean a then `Diverged
      else if a = a_last then `Last
      else if a = a_prev then `Prev
      else `Diverged

let show_recovered = function
  | `Nothing -> "no journal"
  | `Refused m -> "refused: " ^ m
  | `Diverged -> "a reply that is no run's clean verdict"
  | `Last -> "the last run"
  | `Prev -> "the previous run"

(* A medium before its last run: its files, and what it recovers to. *)
type setup = { label : string; prepare : string -> unit; before : [ `Nothing | `Prev ] }

let setups =
  [
    { label = "fresh"; prepare = ignore; before = `Nothing };
    { label = "reused"; prepare = (fun d -> complete_run d a_prev); before = `Prev };
    { label = "legacy two-file"; prepare = (fun d -> write_legacy d a_prev); before = `Prev };
  ]

(* Lay [files] down in a fresh [dir]. *)
let materialize dir files =
  rm_rf dir;
  ignore (Media.mkdir_p dir);
  List.iter (fun (name, bytes) -> write_file (Filename.concat dir name) bytes) files

let snapshot_files dir =
  let p = Filename.concat dir Media.snapshot_file in
  if Sys.file_exists p then [ (Media.snapshot_file, read_file p) ] else []

(* Cut journal.bin at every byte of the last run: each cut recovers the
   run's own verdict or what the medium held before it — never a decode
   error, never any other run. Once the run's checkpoint is whole, every
   longer cut recovers the run itself. *)
let test_cut_every_byte () =
  with_scratch_dir (fun root ->
      List.iter
        (fun st ->
          let dir = Filename.concat root "medium" and copy = Filename.concat root "cut" in
          rm_rf dir;
          ignore (Media.mkdir_p dir);
          st.prepare dir;
          let pre =
            let p = Filename.concat dir Media.journal_file in
            if Sys.file_exists p then read_file p else ""
          in
          complete_run dir a_last;
          let post = journal_of dir in
          if String.sub post 0 (String.length pre) <> pre then
            Alcotest.failf "%s: the run rewrote earlier bytes" st.label;
          let snap = snapshot_files dir in
          let reached_last = ref false in
          for cut = String.length pre to String.length post do
            materialize copy ((Media.journal_file, String.sub post 0 cut) :: snap);
            match (recovered_run copy, st.before) with
            | `Last, _ -> reached_last := true
            | `Nothing, `Nothing | `Prev, `Prev when not !reached_last -> ()
            | r, _ ->
                Alcotest.failf "%s: cut at byte %d of %d recovered %s" st.label cut
                  (String.length post) (show_recovered r)
          done;
          if not !reached_last then Alcotest.failf "%s: the whole run never recovered" st.label)
        setups)

(* A run that starts a compaction: a crash before the rename leaves the
   old journal (and a stray tmp file); after it, the journal is the new
   checkpoint alone, synced, and every cut past it recovers the run. *)
let test_cut_around_compaction () =
  with_scratch_dir (fun root ->
      let dir = Filename.concat root "medium" and copy = Filename.concat root "cut" in
      while
        (not (Sys.file_exists (Filename.concat dir Media.journal_file)))
        || String.length (journal_of dir) < Media.compact_bytes
      do
        complete_run dir a_prev
      done;
      let pre = journal_of dir in
      let media = Media.dir dir in
      ignore (run_ex7 media a_last);
      Alcotest.(check int) "compaction: tmp, directory, then the verdict" 3
        (Media.fsyncs media);
      Media.close media;
      let post = journal_of dir in
      let ck =
        match (Frame.layout post).Frame.last_checkpoint with
        | Some (0, len) -> len
        | _ -> Alcotest.fail "a compacted journal opens with its checkpoint"
      in
      Alcotest.(check bool) "compacted" true (String.length post < String.length pre);
      List.iter
        (fun tmp_len ->
          materialize copy
            [ (Media.journal_file, pre); (Media.journal_file ^ ".tmp", String.sub post 0 tmp_len) ];
          match recovered_run copy with
          | `Prev -> ()
          | r -> Alcotest.failf "crash before the rename recovered %s" (show_recovered r))
        [ 0; ck / 2; ck ];
      for cut = ck to String.length post do
        materialize copy [ (Media.journal_file, String.sub post 0 cut) ];
        match recovered_run copy with
        | `Last -> ()
        | r ->
            Alcotest.failf "after the rename, cut at %d recovered %s" cut (show_recovered r)
      done)

(* Damage one byte of any whole frame of the last run: the magic, the
   checksum, the payload, or a length shortened by one. Recovery refuses
   the medium with a decode error; it never falls back to an earlier
   checkpoint or to snapshot.bin. *)
let test_damaged_byte_is_decode () =
  with_scratch_dir (fun root ->
      List.iter
        (fun st ->
          let dir = Filename.concat root "medium" and copy = Filename.concat root "damaged" in
          rm_rf dir;
          ignore (Media.mkdir_p dir);
          st.prepare dir;
          let pre =
            let p = Filename.concat dir Media.journal_file in
            if Sys.file_exists p then String.length (read_file p) else 0
          in
          complete_run dir a_last;
          let post = journal_of dir in
          let snap = snapshot_files dir in
          let frames = frames_from post pre in
          Alcotest.(check int) (st.label ^ ": checkpoint, 4 records, verdict") 6
            (List.length frames);
          List.iter
            (fun (off, size) ->
              for i = 0 to size - 1 do
                let by = Bytes.of_string post in
                let pos = off + i in
                if i >= 2 && i < 6 then
                  Bytes.set_int32_le by (off + 2)
                    (Int32.of_int (size - Frame.header_size - 1))
                else Bytes.set by pos (Char.chr (Char.code post.[pos] lxor 0xFF));
                materialize copy ((Media.journal_file, Bytes.to_string by) :: snap);
                match resume_dir copy with
                | Error (Runner.Decode _) as e ->
                    if
                      (Guard.reply_of_recovery e).Mechanism.response
                      <> Mechanism.Denied Guard.recovery_notice
                    then Alcotest.failf "%s: a decode error escaped F" st.label
                | Ok res ->
                    Alcotest.failf "%s: damage at byte %d (frame at %d) resumed to %s"
                      st.label pos off (show_mech_reply res.Runner.reply)
                | Error f ->
                    Alcotest.failf "%s: damage at byte %d gave %s, not a decode error"
                      st.label pos (Runner.failure_message f)
              done)
            frames)
        setups)

(* A medium reused run after run stays bounded: compaction keeps
   journal.bin under its threshold plus one run. *)
let test_reused_medium_bounded () =
  with_scratch_dir (fun root ->
      let dir = Filename.concat root "medium" in
      complete_run dir a_prev;
      let one_run = String.length (journal_of dir) in
      let largest = ref 0 and compactions = ref 0 and last = ref one_run in
      for k = 1 to 1000 do
        complete_run dir (if k mod 2 = 0 then a_prev else a_last);
        let n = String.length (journal_of dir) in
        if n < !last then incr compactions;
        last := n;
        largest := max !largest n
      done;
      if !largest >= Media.compact_bytes + one_run then
        Alcotest.failf "journal.bin reached %d bytes (bound %d)" !largest
          (Media.compact_bytes + one_run);
      Alcotest.(check bool) "compacted more than once" true (!compactions > 1);
      match recovered_run dir with
      | `Prev -> ()
      | r -> Alcotest.failf "after 1000 runs recovered %s" (show_recovered r))

(* A crash can leave a torn frame at the end of journal.bin. The next run
   on the medium must cut it first: a checkpoint appended after it could
   never be walked to. *)
let test_torn_tail_cut_before_next_run () =
  with_scratch_dir (fun root ->
      let dir = Filename.concat root "medium" in
      complete_run dir a_prev;
      let p = Filename.concat dir Media.journal_file in
      let torn = Frame.frame (String.make 64 'r') in
      write_file p (read_file p ^ String.sub torn 0 30);
      complete_run dir a_last;
      match recovered_run dir with
      | `Last -> ()
      | r -> Alcotest.failf "run after a torn tail recovered %s" (show_recovered r))

(* --- the journaled runner ------------------------------------------------ *)

(* Kill at EVERY crash point of every small-corpus run and resume: response
   and step count must match the uninterrupted run exactly. The full-corpus
   version of this (plus tampering) is crash_sweep.ml. *)
let test_kill_everywhere_resume_identical () =
  List.iter
    (fun (e : Paper.entry) ->
      let g = Paper.graph e in
      let cfg = cfg_of e in
      Seq.iter
        (fun a ->
          let clean = Dynamic.run cfg g a in
          for k = 0 to 24 do
            let media = Media.memory () in
            ignore
              (Runner.run ~kill_at:k ~snapshot_every:3 ~media
                 ~program_ref:e.Paper.name cfg g a);
            match Runner.resume ~resolve ~media () with
            | Ok res ->
                if res.Runner.reply <> clean then
                  Alcotest.failf "%s kill@%d: resume %s, clean %s" e.Paper.name
                    k
                    (show_mech_reply res.Runner.reply)
                    (show_mech_reply clean)
            | Error f ->
                Alcotest.failf "%s kill@%d: %s" e.Paper.name k
                  (Runner.failure_message f)
          done)
        (Space.enumerate e.Paper.space))
    entries

(* Replaying the same journal twice (crash during recovery) lands on the
   same verdict: resume, kill the RESUMED run, resume again. *)
let test_replay_idempotent () =
  let e = Paper.forgetting in
  let g = Paper.graph e in
  let cfg = cfg_of e in
  let a = ints [ 3; 0 ] in
  let clean = Dynamic.run cfg g a in
  for k1 = 0 to 5 do
    for k2 = 0 to 3 do
      let media = Media.memory () in
      ignore
        (Runner.run ~kill_at:k1 ~snapshot_every:2 ~media
           ~program_ref:e.Paper.name cfg g a);
      (match Runner.resume ~kill_at:k2 ~resolve ~media () with
      | Ok _ | Error _ -> ());
      match Runner.resume ~resolve ~media () with
      | Ok res ->
          if res.Runner.reply <> clean then
            Alcotest.failf "kill@%d then kill@%d: double resume diverged" k1 k2
      | Error f ->
          Alcotest.failf "kill@%d then kill@%d: %s" k1 k2
            (Runner.failure_message f)
    done
  done

(* Stale journal records (a crash between snapshot rename and journal
   reset) are skipped by step monotonicity. *)
let test_stale_records_skipped () =
  let e = Paper.forgetting in
  let g = Paper.graph e in
  let cfg = cfg_of e in
  let a = ints [ 3; 0 ] in
  let clean = Dynamic.run cfg g a in
  (* Journal with records 1..k and the initial snapshot. *)
  let media_old = Media.memory () in
  ignore
    (Runner.run ~kill_at:4 ~snapshot_every:100 ~media:media_old
       ~program_ref:e.Paper.name cfg g a);
  (* A later snapshot, from a run that checkpointed at box 3. *)
  let media_new = Media.memory () in
  ignore
    (Runner.run ~kill_at:3 ~snapshot_every:3 ~media:media_new
       ~program_ref:e.Paper.name cfg g a);
  match (Media.load media_old, Media.load media_new) with
  | Some (_, old_journal), Some (new_snapshot, _) -> (
      (* The composite a rename-then-crash leaves behind: new snapshot,
         old (stale) journal. *)
      let media = Media.memory ~snapshot:new_snapshot ~journal:old_journal () in
      match Runner.resume ~resolve ~media () with
      | Ok res ->
          if res.Runner.reply <> clean then
            Alcotest.fail "stale records corrupted the resume"
      | Error f -> Alcotest.failf "resume refused: %s" (Runner.failure_message f))
  | _ -> Alcotest.fail "expected both media loadable"

(* The cross-run stale-journal window: a journal directory REUSED for a
   second run, with the crash landing between the new snapshot's rename and
   the journal truncation. The medium then holds the new run's snapshot
   (steps = 0) next to the ENTIRE previous run's journal — its verdict
   record included. Resume must execute the new run, never re-deliver the
   old verdict under the new header (a stale grant under different inputs
   is fail-open). Records are told apart by their per-run nonce. *)
let test_cross_run_stale_journal_not_adopted () =
  let e = Paper.forgetting in
  let g = Paper.graph e in
  let cfg = cfg_of e in
  let cleans =
    List.map
      (fun a -> (a, Dynamic.run cfg g a))
      (List.of_seq (Space.enumerate e.Paper.space))
  in
  let (a_old, clean_old), (a_new, clean_new) =
    match cleans with
    | (a0, r0) :: rest -> (
        match List.find_opt (fun (_, r) -> r <> r0) rest with
        | Some p -> ((a0, r0), p)
        | None -> Alcotest.fail "need two inputs with differing verdicts")
    | [] -> Alcotest.fail "empty input space"
  in
  (* The previous run, complete: journal ends in its verdict record. *)
  let media_old = Media.memory () in
  (match
     Runner.run ~snapshot_every:100 ~media:media_old ~program_ref:e.Paper.name
       cfg g a_old
   with
  | Runner.Completed r ->
      if r <> clean_old then Alcotest.fail "old journaled run diverged"
  | Runner.Killed _ -> Alcotest.fail "no kill requested");
  (* The new run, killed right after its initial checkpoint. *)
  let media_new = Media.memory () in
  ignore
    (Runner.run ~kill_at:0 ~snapshot_every:100 ~media:media_new
       ~program_ref:e.Paper.name cfg g a_new);
  match (Media.load media_old, Media.load media_new) with
  | Some (_, old_journal), Some (new_snapshot, _) -> (
      let media = Media.memory ~snapshot:new_snapshot ~journal:old_journal () in
      match Runner.resume ~resolve ~media () with
      | Ok res ->
          if res.Runner.was_complete then
            Alcotest.fail "stale verdict from the previous run was adopted";
          if res.Runner.reply = clean_old && clean_old <> clean_new then
            Alcotest.fail "resume re-delivered the previous run's verdict";
          if res.Runner.reply <> clean_new then
            Alcotest.failf "resume gave %s, new run's clean verdict is %s"
              (show_mech_reply res.Runner.reply)
              (show_mech_reply clean_new)
      | Error f -> Alcotest.failf "resume refused: %s" (Runner.failure_message f))
  | _ -> Alcotest.fail "expected both media loadable"

(* A kill DURING resume must report the interpreter's step count at the
   moment the kill fired, not the count recovery started from. *)
let test_killed_resume_reports_progress () =
  let e = Paper.forgetting in
  let g = Paper.graph e in
  let cfg = cfg_of e in
  let a = ints [ 3; 0 ] in
  (* What the clean interpreter's charge is after three boxes. *)
  let m = Dynamic.prepare cfg g in
  let expected =
    match Dynamic.start m a with
    | Error _ -> Alcotest.fail "start failed"
    | Ok st0 ->
        let rec go st k =
          if k = 0 then Dynamic.steps_of st
          else
            match Dynamic.step m st with
            | Dynamic.Final _ -> Dynamic.steps_of st
            | Dynamic.Step st' -> go st' (k - 1)
        in
        go st0 3
  in
  let media = Media.memory () in
  ignore
    (Runner.run ~kill_at:0 ~snapshot_every:100 ~media ~program_ref:e.Paper.name
       cfg g a);
  match Runner.resume ~kill_at:3 ~resolve ~media () with
  | Ok res ->
      Alcotest.(check int) "killed reply carries current steps" expected
        res.Runner.reply.Mechanism.steps
  | Error f -> Alcotest.failf "resume failed: %s" (Runner.failure_message f)

let test_completed_journal_redelivers () =
  let e = Paper.direct_flow in
  let cfg = cfg_of e in
  let a = ints [ 2 ] in
  let media = Media.memory () in
  let r0 =
    match
      Runner.run ~media ~program_ref:e.Paper.name cfg (Paper.graph e) a
    with
    | Runner.Completed r -> r
    | Runner.Killed _ -> Alcotest.fail "no kill requested"
  in
  match Runner.resume ~resolve ~media () with
  | Ok res ->
      Alcotest.(check bool) "verdict came from the journal" true
        res.Runner.was_complete;
      if res.Runner.reply <> r0 then Alcotest.fail "re-delivered verdict differs"
  | Error f -> Alcotest.failf "resume failed: %s" (Runner.failure_message f)

(* Unrecoverable media: every refusal maps to the single notice Λ/recovery,
   and Λ/recovery is an F element, not a grant. *)
let test_unrecoverable_is_recovery_notice () =
  let e = Paper.forgetting in
  let cfg = cfg_of e in
  let a = ints [ 3; 0 ] in
  let media = Media.memory () in
  ignore
    (Runner.run ~kill_at:2 ~snapshot_every:2 ~media ~program_ref:e.Paper.name
       cfg (Paper.graph e) a);
  let snapshot, journal =
    match Media.load media with Some p -> p | None -> Alcotest.fail "no media"
  in
  let cases =
    [
      ("empty medium", Media.memory ());
      ("flipped snapshot bit",
       let by = Bytes.of_string snapshot in
       Bytes.set by 20 (Char.chr (Char.code (Bytes.get by 20) lxor 4));
       Media.memory ~snapshot:(Bytes.to_string by) ~journal ());
      ("snapshot is garbage", Media.memory ~snapshot:"not a frame" ~journal ());
      ("foreign program",
       let media' = Media.memory () in
       ignore
         (Runner.run ~kill_at:2 ~media:media' ~program_ref:"no-such-program"
            cfg (Paper.graph e) a);
       media');
    ]
  in
  List.iter
    (fun (label, m) ->
      match Runner.resume ~resolve ~media:m () with
      | Ok _ -> Alcotest.failf "%s: resume should refuse" label
      | Error _ as err -> (
          match (Guard.reply_of_recovery err).Mechanism.response with
          | Mechanism.Denied n ->
              Alcotest.(check string) label Guard.recovery_notice n
          | _ -> Alcotest.failf "%s: refusal escaped F" label))
    cases

(* Resume under a DIFFERENT program than the journal was written against
   must be refused — the journal is not portable across programs. *)
let test_program_hash_checked () =
  let e = Paper.forgetting in
  let cfg = cfg_of e in
  let media = Media.memory () in
  ignore
    (Runner.run ~kill_at:2 ~media ~program_ref:e.Paper.name cfg (Paper.graph e)
       (ints [ 3; 0 ]));
  let bad_resolve (_ : Runner.header) = Ok (Paper.graph Paper.direct_flow) in
  match Runner.resume ~resolve:bad_resolve ~media () with
  | Error (Runner.Program_mismatch _) -> ()
  | Error f -> Alcotest.failf "wrong failure: %s" (Runner.failure_message f)
  | Ok _ -> Alcotest.fail "hash mismatch must refuse to resume"

let () =
  Alcotest.run "journal"
    [
      ( "codec",
        [
          Alcotest.test_case "crc32-vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "value-roundtrip" `Quick test_value_roundtrip;
          Alcotest.test_case "version-rejected" `Quick test_version_rejected;
          Alcotest.test_case "truncation-rejected" `Quick test_truncation_rejected;
          Alcotest.test_case "absurd-length-rejected" `Quick test_absurd_length_rejected;
          prop_image_roundtrip;
          prop_rehydrated_runs_identically;
        ] );
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "torn-tail-dropped" `Quick test_frame_torn_tail_dropped;
          Alcotest.test_case "corruption-refused" `Quick test_frame_corruption_refused;
          Alcotest.test_case "one" `Quick test_frame_one;
        ] );
      ( "media",
        [
          Alcotest.test_case "memory" `Quick test_memory_media;
          Alcotest.test_case "dir-kill-resume" `Quick test_dir_media_kill_resume;
        ] );
      ( "layout",
        [
          Alcotest.test_case "checkpoint-frames" `Quick test_frame_checkpoint_layout;
          Alcotest.test_case "one-fsync-per-run" `Quick test_one_fsync_per_run;
          Alcotest.test_case "cut-every-byte" `Quick test_cut_every_byte;
          Alcotest.test_case "cut-around-compaction" `Quick test_cut_around_compaction;
          Alcotest.test_case "damaged-byte-is-decode" `Quick test_damaged_byte_is_decode;
          Alcotest.test_case "reused-medium-bounded" `Quick test_reused_medium_bounded;
          Alcotest.test_case "torn-tail-cut" `Quick test_torn_tail_cut_before_next_run;
        ] );
      ( "runner",
        [
          Alcotest.test_case "kill-everywhere-resume-identical" `Quick
            test_kill_everywhere_resume_identical;
          Alcotest.test_case "replay-idempotent" `Quick test_replay_idempotent;
          Alcotest.test_case "stale-records-skipped" `Quick test_stale_records_skipped;
          Alcotest.test_case "cross-run-stale-journal-not-adopted" `Quick
            test_cross_run_stale_journal_not_adopted;
          Alcotest.test_case "killed-resume-reports-progress" `Quick
            test_killed_resume_reports_progress;
          Alcotest.test_case "completed-redelivers" `Quick test_completed_journal_redelivers;
          Alcotest.test_case "unrecoverable-is-recovery-notice" `Quick
            test_unrecoverable_is_recovery_notice;
          Alcotest.test_case "program-hash-checked" `Quick test_program_hash_checked;
        ] );
    ]
