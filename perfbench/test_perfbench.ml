(* Tests of the benchmark's own machinery: input generation, percentiles,
   self-time accounting and the correctness check. *)

open Perfbench
module Telemetry = Asc_util.Telemetry
module Bitvec = Asc_util.Bitvec

let same_seed_same_inputs () =
  let specs seed = Loadgen.step_specs ~seed ~name:"sat" [ 2; 3 ] in
  Alcotest.(check bool) "spec list repeats" true (specs 7 = specs 7);
  Alcotest.(check bool) "another seed, another order" false (specs 7 = specs 8);
  Alcotest.(check bool) "another seed, the same jobs" true
    (List.sort compare (specs 7) = List.sort compare (specs 8));
  Alcotest.(check bool) "schedule repeats" true
    (Loadgen.arrivals ~rate:5.0 ~n:40 = Loadgen.arrivals ~rate:5.0 ~n:40)

let spec_list_shape () =
  let specs = Loadgen.step_specs ~seed:3 ~name:"x" [ 0; 1 ] in
  Alcotest.(check int) "all distinct" (2 * Loadgen.kinds)
    (List.length (List.sort_uniq compare specs));
  let kinds = List.sort_uniq compare (List.map (fun (s : Loadgen.spec) -> (s.circuit, s.t0)) specs) in
  Alcotest.(check int) "every kind" Loadgen.kinds (List.length kinds);
  let probe = Loadgen.probe 16 in
  Alcotest.(check int) "probe jobs are distinct" 16 (List.length (List.sort_uniq compare probe));
  Alcotest.(check bool) "probe and blocks share no job" true
    (List.for_all (fun p -> not (List.mem p specs)) probe);
  let dues = Loadgen.arrivals ~rate:5.0 ~n:50 in
  Alcotest.(check (float 1e-9)) "constant rate" 9.8 (List.nth dues 49)

let percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "nearest-rank p50" 50.0 (Stats.median xs);
  Alcotest.(check (float 0.0)) "nearest-rank p90" 90.0 (Stats.nearest_rank ~p:90.0 xs);
  Alcotest.(check (float 0.0)) "nearest-rank p1" 1.0 (Stats.nearest_rank ~p:1.0 xs);
  Alcotest.(check (option (float 0.0))) "p90 of 100: ten beyond" (Some 90.0) (Stats.tail ~p:90.0 xs);
  Alcotest.(check (option (float 0.0))) "p90 of 99: nine beyond" None
    (Stats.tail ~p:90.0 (List.tl xs));
  Alcotest.(check (option (float 0.0))) "p99 of 100" None (Stats.tail ~p:99.0 xs);
  Alcotest.(check (float 0.0)) "median of one" 4.0 (Stats.median [ 4.0 ])

let snapshot events =
  { Telemetry.duration = 10.0; counters = []; tracks = [ { Telemetry.dom = 0; events } ] }

let b name ts = Telemetry.Begin { name; ts; args = [] }

let e name ts = Telemetry.End { name; ts }

let self_times_sum_to_wall () =
  let snap =
    snapshot
      [
        b "bench:run" 0.0; b "phase1+2" 0.5; b "fsim:profile" 1.0; e "fsim:profile" 2.0;
        b "fsim:verify" 2.0; e "fsim:verify" 2.5; b "fsim:profile" 2.5; e "fsim:profile" 3.0;
        b "fsim:verify" 3.0; e "fsim:verify" 3.25; b "unknown:span" 3.5; e "unknown:span" 4.0;
        e "phase1+2" 6.0; b "phase4" 6.0; b "fsim:verify" 7.0; e "fsim:verify" 8.0;
        e "phase4" 9.0; e "bench:run" 10.0;
      ]
  in
  let acc = Selftime.create () in
  Selftime.add acc snap;
  let self = Selftime.self_of acc in
  Alcotest.(check (float 1e-9)) "root wall" 10.0 acc.roots;
  Alcotest.(check (float 1e-9)) "self times sum to the root's wall" 10.0 (Selftime.total acc);
  Alcotest.(check (float 1e-9)) "profile" 1.5 (self "fsim.profile_s");
  Alcotest.(check (float 1e-9)) "omission verify" 0.75 (self "omission.verify_s");
  Alcotest.(check (float 1e-9)) "phase4 keeps its own verify" 3.0 (self "combine.phase4_s");
  Alcotest.(check (float 1e-9)) "phase1+2 loop" 2.75 (self "omission.loop_s");
  Alcotest.(check (float 1e-9)) "bench glue" 1.5 (self "pipeline.other_s");
  Alcotest.(check (float 1e-9)) "unmapped" 0.5 acc.unmapped;
  Alcotest.(check int) "trials" 2 acc.trials;
  Alcotest.(check int) "accepted" 1 acc.accepted

let s27_claim () =
  let c = Asc_circuits.Registry.get "s27" in
  let config = Asc_core.Pipeline.default_config in
  let p = Asc_core.Pipeline.prepare ~config c in
  let r = Asc_core.Pipeline.run ~config p in
  let claim =
    { Check.tests = r.final_tests; cycles = r.cycles_final;
      detected = Bitvec.count (Bitvec.inter r.final_detected p.targets) }
  in
  (c, p, claim)

let check_accepts_and_rejects () =
  let c, p, claim = s27_claim () in
  let check claim = Check.result c ~faults:p.faults ~targets:p.targets claim in
  Alcotest.(check bool) "the pipeline's own result passes" true (check claim = Ok ());
  Alcotest.(check bool) "a wrong N_cyc fails" true
    (Result.is_error (check { claim with cycles = claim.cycles + 1 }));
  Alcotest.(check bool) "an overstated coverage fails" true
    (Result.is_error (check { claim with detected = claim.detected + 1 }));
  let dropped = Array.sub claim.tests 1 (Array.length claim.tests - 1) in
  Alcotest.(check bool) "a test set missing a test fails" true
    (Result.is_error
       (check { claim with tests = dropped; cycles = Asc_scan.Time_model.cycles_of_tests c dropped }));
  let served = { Check.s_tests = 3; s_cycles = 40; s_detected = 30; s_targets = 32 } in
  Alcotest.(check bool) "equal served summary passes" true (Check.served ~expected:served served = Ok ());
  Alcotest.(check bool) "a served cycle count off by one fails" true
    (Result.is_error (Check.served ~expected:served { served with s_cycles = 41 }))

let () =
  Alcotest.run "perfbench"
    [
      ( "loadgen",
        [
          Alcotest.test_case "same seed, same inputs" `Quick same_seed_same_inputs;
          Alcotest.test_case "spec list shape" `Quick spec_list_shape;
        ] );
      ("stats", [ Alcotest.test_case "nearest-rank percentiles" `Quick percentiles ]);
      ("selftime", [ Alcotest.test_case "self times sum to wall" `Quick self_times_sum_to_wall ]);
      ("check", [ Alcotest.test_case "accepts and rejects" `Quick check_accepts_and_rejects ]);
    ]
