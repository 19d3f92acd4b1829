(* Shared helpers for the test suites. *)

module Value = Secpol_core.Value
module Iset = Secpol_core.Iset
module Space = Secpol_core.Space
module Policy = Secpol_core.Policy
module Program = Secpol_core.Program
module Mechanism = Secpol_core.Mechanism
module Soundness = Secpol_core.Soundness
module Completeness = Secpol_core.Completeness
module Maximal = Secpol_core.Maximal
module Harness = Secpol_fault.Harness

let ints l = Array.of_list (List.map Value.int l)

let value_testable = Alcotest.testable Value.pp Value.equal
let obs_testable = Alcotest.testable Program.Obs.pp Program.Obs.equal
let iset_testable = Alcotest.testable Iset.pp Iset.equal

let check_sound ?config msg policy m space =
  match Soundness.check ?config policy m space with
  | Soundness.Sound -> ()
  | Soundness.Unsound _ as v ->
      Alcotest.failf "%s: expected sound, got %a" msg Soundness.pp_verdict v

let check_unsound ?config msg policy m space =
  match Soundness.check ?config policy m space with
  | Soundness.Unsound _ -> ()
  | Soundness.Sound -> Alcotest.failf "%s: expected unsound, got sound" msg

(* The response a mechanism gives on a concrete input, collapsed for easy
   assertions: [Ok v] for a grant, [Error notice] otherwise. *)
let respond m inputs =
  match (Mechanism.respond m (ints inputs)).Mechanism.response with
  | Mechanism.Granted v -> Ok v
  | Mechanism.Denied n -> Error n
  | Mechanism.Hung -> Error "<hung>"
  | Mechanism.Failed msg -> Error ("<failed: " ^ msg ^ ">")

let check_grants msg m inputs expected =
  match respond m inputs with
  | Ok v -> Alcotest.check value_testable msg (Value.int expected) v
  | Error e -> Alcotest.failf "%s: expected grant of %d, got %s" msg expected e

let check_denies msg m inputs =
  match respond m inputs with
  | Ok v -> Alcotest.failf "%s: expected denial, got %a" msg Value.pp v
  | Error _ -> ()

let ratio m ~q space = Completeness.ratio m ~q space

let check_ratio msg ~expected m ~q space =
  let r = ratio m ~q space in
  if Float.abs (r -. expected) > 1e-9 then
    Alcotest.failf "%s: expected completeness %.3f, measured %.3f" msg expected r

let show_mech_reply (r : Mechanism.reply) =
  let resp =
    match r.Mechanism.response with
    | Mechanism.Granted v -> "granted " ^ Value.to_string v
    | Mechanism.Denied n -> "denied " ^ n
    | Mechanism.Hung -> "hung"
    | Mechanism.Failed m -> "failed: " ^ m
  in
  Printf.sprintf "%s (%d steps)" resp r.Mechanism.steps

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest ~verbose:false
    (QCheck.Test.make ~count ~name gen prop)

(* The example-program expectation table shared with `make lint-corpus` /
   `make certify-corpus`: one line per .spl file —
   [file lint_verdict certify_verdict rules] with verdicts proved|refuted
   and rules a comma-separated list ("-" for none). *)
type manifest_row = {
  mf_file : string;
  mf_lint_certified : bool;
  mf_certify_verdict : string;
  mf_lint_rules : string list;
}

let corpus_manifest_path = "../examples/programs/corpus.manifest"

let load_corpus_manifest () =
  let ic = open_in corpus_manifest_path in
  let certified = function
    | "proved" -> true
    | "refuted" -> false
    | v -> failwith (Printf.sprintf "%s: bad verdict %S" corpus_manifest_path v)
  in
  let rec loop rows =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev rows
    | line -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then loop rows
        else
          match
            String.split_on_char ' ' line
            |> List.filter (fun s -> s <> "")
          with
          | [ file; lint_v; certify_v; rules ] ->
              loop
                ({
                   mf_file = file;
                   mf_lint_certified = certified lint_v;
                   mf_certify_verdict = certify_v;
                   mf_lint_rules =
                     (if rules = "-" then []
                      else String.split_on_char ',' rules);
                 }
                :: rows)
          | _ ->
              failwith
                (Printf.sprintf "%s: malformed line %S" corpus_manifest_path
                   line))
  in
  loop []

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A fresh directory under the system temp dir, removed with everything in
   it when [f] returns. *)
let with_scratch_dir f =
  let dir = Filename.temp_dir "secpol_test_" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* The acceptance gate of a chaos sweep executable: print the report title
   and one line per check, list the findings, and exit 1 unless the report
   is ok, every [zero] counter is 0, every [nonzero] counter is positive
   (an inert sweep would pass the zero gates while testing nothing) and
   the sweep ran at least [min_plans] plans. Checks are (label, counter). *)
let sweep_gate ?min_plans ~zero ~nonzero (r : Harness.report) =
  let count = Harness.count r in
  let failed = ref (not r.Harness.ok) in
  let check ok label v note =
    Printf.printf "%s %-28s %d%s\n" (if ok then "ok  " else "FAIL") label v note;
    if not ok then failed := true
  in
  print_endline r.Harness.view.Harness.title;
  Option.iter
    (fun n ->
      check (count "plans" >= n) (Printf.sprintf "plans >= %d" n)
        (count "plans") "")
    min_plans;
  List.iter (fun (label, name) -> check (count name = 0) label (count name) "")
    zero;
  List.iter
    (fun (label, name) ->
      let v = count name in
      check (v > 0) label v (if v > 0 then "" else " (sweep is inert)"))
    nonzero;
  List.iter
    (fun (f : Harness.finding) ->
      Printf.printf "  ! %s: %s\n"
        (String.concat " / " f.Harness.subject)
        f.Harness.detail)
    r.Harness.findings;
  if !failed then exit 1
