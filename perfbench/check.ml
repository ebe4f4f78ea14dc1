(* Correctness checks on every test set the benchmark produces, run
   outside the timed region.

   A result claims a test set, its clock-cycle count N_cyc and the number
   of target faults it detects.  [result] re-simulates the test set with
   [Tset.coverage] and recounts N_cyc twice: with [Time_model] and by
   the paper's formula (k+1)*N_SV + sum of L over the k tests. *)

module Bitvec = Asc_util.Bitvec
module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test

type claim = {
  tests : Scan_test.t array;
  cycles : int;  (** Claimed N_cyc. *)
  detected : int;  (** Claimed count of detected target faults. *)
}

let paper_cycles c tests =
  let k = Array.length tests in
  if k = 0 then 0
  else
    ((k + 1) * Circuit.n_dffs c)
    + Array.fold_left (fun s t -> s + Scan_test.length t) 0 tests

let result ?pool c ~faults ~targets claim =
  let fail fmt = Printf.ksprintf (fun m -> Error (Circuit.name c ^ ": " ^ m)) fmt in
  let model = Asc_scan.Time_model.cycles_of_tests c claim.tests in
  let formula = paper_cycles c claim.tests in
  let detected =
    Bitvec.count
      (Bitvec.inter (Asc_scan.Tset.coverage ?pool ~only:targets c claim.tests ~faults) targets)
  in
  if model <> claim.cycles then fail "N_cyc %d claimed, Time_model gives %d" claim.cycles model
  else if formula <> claim.cycles then
    fail "N_cyc %d claimed, (k+1)*N_SV + sum L gives %d" claim.cycles formula
  else if detected <> claim.detected then
    fail "%d detected claimed, re-simulation detects %d" claim.detected detected
  else Ok ()

(* The summary a served submit answers with, against the in-process
   result for the same spec. *)
type summary = { s_tests : int; s_cycles : int; s_detected : int; s_targets : int }

let summary_of_json json =
  let module J = Asc_util.Json in
  let int k = Option.bind (J.member k json) J.as_int in
  match (int "tests", int "cycles", int "detected", int "targets") with
  | Some t, Some c, Some d, Some g -> Some { s_tests = t; s_cycles = c; s_detected = d; s_targets = g }
  | _ -> None

let served ~expected got =
  if got = expected then Ok ()
  else
    Error
      (Printf.sprintf
         "served tests/cycles/detected/targets %d/%d/%d/%d, in-process %d/%d/%d/%d"
         got.s_tests got.s_cycles got.s_detected got.s_targets expected.s_tests
         expected.s_cycles expected.s_detected expected.s_targets)
