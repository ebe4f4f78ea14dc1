(* Tests for Asc_compact: combining [4], vector omission [8], Phase-3 set
   covering, and the dynamic baseline.  The central properties are the
   coverage-preservation invariants each procedure promises. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Scan_test = Asc_scan.Scan_test
module Collapse = Asc_fault.Collapse

let qtest = QCheck_alcotest.to_alcotest

let small_circuit seed =
  Asc_circuits.Profile.make "cmp" 4 3 5 45 ~t0_budget:10
  |> Asc_circuits.Generator.generate ~seed

let coverage c tests ~faults ~targets =
  Bitvec.inter (Asc_scan.Tset.coverage c tests ~faults) targets

(* A little test set from random patterns that detect something. *)
let random_test_set c ~faults rng n =
  let tests = ref [] in
  while List.length !tests < n do
    let p =
      Asc_sim.Pattern.random rng ~n_pis:(Circuit.n_inputs c) ~n_ffs:(Circuit.n_dffs c)
    in
    let t = Scan_test.of_pattern p in
    if not (Bitvec.is_empty (Scan_test.detect c t ~faults)) then tests := t :: !tests
  done;
  Array.of_list !tests

(* --- Combine ([4]) ----------------------------------------------------- *)

let prop_combine_preserves_coverage =
  QCheck.Test.make ~name:"combine preserves target coverage and reduces cycles"
    ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 31) in
      let tests = random_test_set c ~faults rng 12 in
      let targets = Asc_scan.Tset.coverage c tests ~faults in
      let before = coverage c tests ~faults ~targets in
      let r = Asc_compact.Combine.run c tests ~faults ~targets in
      let after = coverage c r.tests ~faults ~targets in
      let cycles_before = Asc_scan.Time_model.cycles_of_tests c tests in
      let cycles_after = Asc_scan.Time_model.cycles_of_tests c r.tests in
      Bitvec.subset before after
      && cycles_after <= cycles_before
      && Array.length r.tests = Array.length tests - r.combinations)

let test_combine_chained_pair () =
  (* Two tests where the second's scan-in equals the first's scan-out:
     the combined test replays T_j identically, so the only faults at risk
     are those t1 detected solely through its (removed) scan-out.  Whether
     or not the pair combines, coverage must be preserved exactly. *)
  let c = Asc_circuits.S27.circuit () in
  let faults = Collapse.reps (Collapse.run c) in
  let rng = Rng.create 9 in
  let si = Rng.bool_array rng 3 in
  let seq1 = Array.init 2 (fun _ -> Rng.bool_array rng 4) in
  let t1 = Scan_test.create ~si ~seq:seq1 in
  let so1 = Scan_test.scan_out c t1 in
  let t2 = Scan_test.create ~si:so1 ~seq:(Array.init 2 (fun _ -> Rng.bool_array rng 4)) in
  let tests = [| t1; t2 |] in
  let targets = Asc_scan.Tset.coverage c tests ~faults in
  let r = Asc_compact.Combine.run c tests ~faults ~targets in
  let after = coverage c r.tests ~faults ~targets in
  Alcotest.(check bool) "coverage preserved" true (Bitvec.equal after targets);
  if r.combinations = 1 then begin
    Alcotest.(check int) "combined into one" 1 (Array.length r.tests);
    Alcotest.(check int) "length 4" 4 (Scan_test.length r.tests.(0))
  end
  else Alcotest.(check int) "pair kept" 2 (Array.length r.tests)

let test_combine_single_test_noop () =
  let c = Asc_circuits.S27.circuit () in
  let faults = Collapse.reps (Collapse.run c) in
  let rng = Rng.create 10 in
  let t =
    Scan_test.create ~si:(Rng.bool_array rng 3)
      ~seq:(Array.init 3 (fun _ -> Rng.bool_array rng 4))
  in
  let targets = Asc_scan.Tset.coverage c [| t |] ~faults in
  let r = Asc_compact.Combine.run c [| t |] ~faults ~targets in
  Alcotest.(check int) "unchanged" 1 (Array.length r.tests);
  Alcotest.(check int) "no attempts" 0 r.combinations

(* --- Vector omission ([8]) --------------------------------------------- *)

let prop_omission_preserves_required =
  QCheck.Test.make ~name:"omission keeps every required fault detected" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 32) in
      let si = Rng.bool_array rng (Circuit.n_dffs c) in
      let seq = Array.init 16 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
      let test = Scan_test.create ~si ~seq in
      let required = Scan_test.detect c test ~faults in
      let r = Asc_compact.Vector_omission.run c test ~faults ~required in
      let after = Scan_test.detect c r.test ~faults in
      Bitvec.subset required after
      && Scan_test.length r.test = 16 - r.omitted
      && Scan_test.length r.test >= 1)

let test_omission_removes_padding () =
  (* Vectors after the last detection are omitted. *)
  let c = Asc_circuits.S27.circuit () in
  let faults = Collapse.reps (Collapse.run c) in
  let rng = Rng.create 13 in
  let si = Rng.bool_array rng 3 in
  let core = Array.init 4 (fun _ -> Rng.bool_array rng 4) in
  let test = Scan_test.create ~si ~seq:core in
  let required = Scan_test.detect c test ~faults in
  (* Pad the test with vectors, then require only the original faults:
     omission should strip a good share of the padding. *)
  let padded =
    Scan_test.create ~si ~seq:(Array.append core (Array.make 12 (Array.make 4 false)))
  in
  let r = Asc_compact.Vector_omission.run c padded ~faults ~required in
  Alcotest.(check bool) "substantial removal" true (r.omitted >= 8);
  let after = Scan_test.detect c r.test ~faults in
  Alcotest.(check bool) "required kept" true (Bitvec.subset required after)

(* --- Set cover (Phase 3) ----------------------------------------------- *)

let test_set_cover_paper_rules () =
  (* 4 tests, 5 faults.  Fault 4 is covered only by test 1 (n=1, picked
     first); the rest follow the min-n(f) / last(f) rules. *)
  let m = Bitmat.create 4 5 in
  List.iter (fun (t, f) -> Bitmat.set m t f)
    [ (0, 0); (1, 0); (2, 0); (3, 0); (0, 1); (1, 1); (2, 2); (3, 2); (1, 4); (0, 3); (3, 3) ];
  let undetected = Bitvec.of_list 5 [ 0; 1; 2; 3; 4 ] in
  let r = Asc_compact.Set_cover.select ~matrix:m ~undetected in
  Alcotest.(check bool) "nothing uncovered" true (Bitvec.is_empty r.uncovered);
  (* Fault 4 has n=1 -> test 1 first.  Test 1 covers faults 0,1,4.
     Remaining: 2 (n=2, last=3), 3 (n=2, last=3) -> test 3 covers both. *)
  Alcotest.(check (list int)) "selection" [ 1; 3 ] r.selected

let test_set_cover_uncoverable () =
  let m = Bitmat.create 2 3 in
  Bitmat.set m 0 0;
  Bitmat.set m 1 1;
  let undetected = Bitvec.of_list 3 [ 0; 1; 2 ] in
  let r = Asc_compact.Set_cover.select ~matrix:m ~undetected in
  Alcotest.(check (list int)) "uncovered fault" [ 2 ] (Bitvec.to_list r.uncovered);
  Alcotest.(check int) "both tests needed" 2 (List.length r.selected)

let prop_set_cover_covers =
  QCheck.Test.make ~name:"set cover covers every coverable fault" ~count:50
    QCheck.(pair (int_range 1 12) (int_range 1 40))
    (fun (n_tests, n_faults) ->
      let rng = Rng.create (n_tests * 1000 + n_faults) in
      let m = Bitmat.create n_tests n_faults in
      for t = 0 to n_tests - 1 do
        for f = 0 to n_faults - 1 do
          if Rng.int rng 100 < 25 then Bitmat.set m t f
        done
      done;
      let undetected = Bitvec.create ~default:true n_faults in
      let r = Asc_compact.Set_cover.select ~matrix:m ~undetected in
      let covered = Bitvec.create n_faults in
      List.iter
        (fun t -> Bitvec.union_into ~into:covered (Bitmat.row m t))
        r.selected;
      (* covered + uncovered = everything; uncovered really has n(f)=0. *)
      Bitvec.equal (Bitvec.union covered r.uncovered) undetected
      && Bitvec.fold_set
           (fun acc f -> acc && Bitmat.column_count m f = 0)
           true r.uncovered)

(* --- Dynamic baseline --------------------------------------------------- *)

let test_dynamic_baseline_coverage () =
  let c = Asc_circuits.S27.circuit () in
  let faults = Collapse.reps (Collapse.run c) in
  let targets = Bitvec.create ~default:true (Array.length faults) in
  let rng = Rng.create 21 in
  let r = Asc_compact.Dynamic_baseline.run c ~faults ~targets ~rng in
  (* s27 is fully testable: everything detected, nothing unresolved. *)
  Alcotest.(check int) "full coverage" 32 (Bitvec.count r.detected);
  Alcotest.(check int) "no unresolved" 0 (Bitvec.count r.unresolved);
  (* The recorded coverage is real. *)
  let cov = Asc_scan.Tset.coverage c r.tests ~faults in
  Alcotest.(check bool) "coverage verified" true (Bitvec.subset r.detected cov);
  (* Extension produced at least one multi-vector test. *)
  let lengths = Array.map Scan_test.length r.tests in
  Alcotest.(check bool) "some test extends" true (Array.exists (fun l -> l > 1) lengths)

(* The claimed coverage is real, and no detected target is reported as
   unresolved. *)
let dynamic_baseline_sound seed =
  let c = small_circuit seed in
  let faults = Collapse.reps (Collapse.run c) in
  let targets = Bitvec.create ~default:true (Array.length faults) in
  let rng = Rng.create (seed + 33) in
  let r = Asc_compact.Dynamic_baseline.run c ~faults ~targets ~rng in
  let cov = Asc_scan.Tset.coverage c r.tests ~faults in
  Bitvec.subset r.detected cov
  && Bitvec.is_empty (Bitvec.inter r.detected r.unresolved)

(* Circuit seed 5627: PODEM aborts on a target (XNOR pin 0 sa1) that a
   later test detects by accident; it must leave [unresolved]. *)
let test_dynamic_baseline_aborted_then_detected () =
  Alcotest.(check bool) "circuit seed 5627" true (dynamic_baseline_sound 5627)

let prop_dynamic_baseline_sound =
  QCheck.Test.make ~name:"dynamic baseline's claimed coverage is real" ~count:5
    QCheck.(int_range 0 10_000)
    dynamic_baseline_sound

let suite =
  [
    ( "compact",
      [
        qtest prop_combine_preserves_coverage;
        Alcotest.test_case "combine chained pair" `Quick test_combine_chained_pair;
        Alcotest.test_case "combine single noop" `Quick test_combine_single_test_noop;
        qtest prop_omission_preserves_required;
        Alcotest.test_case "omission removes padding" `Quick test_omission_removes_padding;
        Alcotest.test_case "set cover paper rules" `Quick test_set_cover_paper_rules;
        Alcotest.test_case "set cover uncoverable" `Quick test_set_cover_uncoverable;
        qtest prop_set_cover_covers;
        Alcotest.test_case "dynamic baseline s27" `Quick test_dynamic_baseline_coverage;
        Alcotest.test_case "dynamic baseline aborted target detected later" `Quick
          test_dynamic_baseline_aborted_then_detected;
        qtest prop_dynamic_baseline_sound;
      ] );
  ]
