(* Kernel-equivalence suite: every 2-valued fault-simulation entry point
   runs on the levelized kernel (Asc_sim.Kernel) and must be bit-identical
   to the scalar oracle Asc_sim.Naive run with the fault injected — same
   detection vectors, same profiles, same candidate and pattern matrices —
   on random and registry circuits, at every domain count. *)

open Asc_util
module Circuit = Asc_netlist.Circuit
module Collapse = Asc_fault.Collapse
module Fault = Asc_fault.Fault
module Seq_fsim = Asc_fault.Seq_fsim
module Comb_fsim = Asc_fault.Comb_fsim
module Naive = Asc_sim.Naive

let qtest = QCheck_alcotest.to_alcotest

let with_pool domains f =
  if domains <= 1 then f None
  else
    let pool = Domain_pool.create ~domains () in
    Fun.protect
      ~finally:(fun () -> Domain_pool.shutdown pool)
      (fun () -> f (Some pool))

(* --- The oracle -------------------------------------------------------- *)

(* Scalar run of the scan test (si, seq): per time unit, the PO vector and
   the state captured after it.  [overrides] empty = the good machine. *)
let naive_trace ?overrides c ~si ~seq =
  let state = ref si in
  Array.map
    (fun pis ->
      let v = Naive.eval_comb ?overrides c ~pis ~state:!state in
      state := Naive.next_state_of ?overrides c v;
      (Naive.outputs_of c v, !state))
    seq

(* The oracle's view of one fault against a precomputed good trace:
   earliest PO-difference time ([max_int] if none) and, per time unit,
   whether the captured state differs. *)
let naive_profile c ~si ~seq ~good fault =
  let overrides = [ Fault.to_override fault ~lanes:Word.mask ] in
  let bad = naive_trace ~overrides c ~si ~seq in
  let po_time = ref max_int in
  Array.iteri
    (fun t ((gpo, _), (bpo, _)) -> if gpo <> bpo && !po_time = max_int then po_time := t)
    (Array.combine good bad);
  (!po_time, Array.map2 (fun (_, gs) (_, bs) -> gs <> bs) good bad)

(* Detection by the whole scan test: a PO difference, or a difference in
   the scanned-out final state. *)
let naive_detects c ~si ~seq ~good fault =
  let po_time, sdiff = naive_profile c ~si ~seq ~good fault in
  let len = Array.length seq in
  po_time < max_int || (len > 0 && sdiff.(len - 1))

let naive_detect_vector c ~si ~seq ~faults ~indices =
  let good = naive_trace c ~si ~seq in
  List.map (fun fi -> (fi, naive_detects c ~si ~seq ~good faults.(fi))) indices

(* Fault indices the oracle checks on a circuit: all of them when scalar
   simulation is cheap, else a fixed-seed sample of [sample] faults
   (scalar runs cost faults x gates per cycle, and the large registry
   circuits would take minutes). *)
let oracle_indices c name ~n ~sample =
  if n * Circuit.n_gates c <= 120_000 || n <= sample then List.init n Fun.id
  else
    let rng = Rng.of_name ~seed:0 (name ^ "/kernel-oracle-sample") in
    List.sort_uniq compare (List.init sample (fun _ -> Rng.int rng n))

(* Deterministic per-circuit test stimulus. *)
let stimulus c name ~len =
  let rng = Rng.of_name ~seed:0 (name ^ "/kernel-equiv") in
  let si = Rng.bool_array rng (Circuit.n_dffs c) in
  let seq = Array.init len (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
  (si, seq)

(* --- Registry circuits ------------------------------------------------- *)

(* Every registry circuit: the detection vector over the full collapsed
   fault list is bit-identical at 1, 2 and 4 domains, and matches Naive
   on every fault (small circuits) or on a fixed-seed sample (large). *)
let test_registry_detect_equivalence () =
  List.iter
    (fun name ->
      let c = Asc_circuits.Registry.get name in
      let faults = Collapse.reps (Collapse.run c) in
      let si, seq = stimulus c name ~len:6 in
      let at domains =
        with_pool domains (fun pool ->
            Seq_fsim.clear_trace_cache ();
            Seq_fsim.detect ?pool c ~si ~seq ~faults)
      in
      let det = at 1 in
      List.iter
        (fun domains ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d domains = 1 domain" name domains)
            true
            (Bitvec.equal det (at domains)))
        [ 2; 4 ];
      let indices = oracle_indices c name ~n:(Array.length faults) ~sample:120 in
      List.iter
        (fun (fi, expected) ->
          if Bitvec.get det fi <> expected then
            Alcotest.failf "%s: fault %s: kernel %b, Naive %b" name
              (Fault.to_string c faults.(fi))
              (Bitvec.get det fi) expected)
        (naive_detect_vector c ~si ~seq ~faults ~indices))
    Asc_circuits.Registry.names

(* The richer entry points — profile, candidate_detections,
   verify_required — on a registry circuit, at every domain count,
   against Naive on every collapsed fault. *)
let test_rich_ops_equivalence () =
  let name = "s298" in
  let c = Asc_circuits.Registry.get name in
  let faults = Collapse.reps (Collapse.run c) in
  let n = Array.length faults in
  let si, seq = stimulus c name ~len:8 in
  let subset = Array.init n Fun.id in
  let rng = Rng.of_name ~seed:1 (name ^ "/kernel-equiv-sis") in
  let sis = Array.init 5 (fun _ -> Rng.bool_array rng (Circuit.n_dffs c)) in
  let good = naive_trace c ~si ~seq in
  let oracle = Array.map (naive_profile c ~si ~seq ~good) faults in
  let detected =
    List.filter
      (fun fi -> naive_detects c ~si ~seq ~good faults.(fi))
      (List.init n Fun.id)
  in
  let cand_oracle =
    Array.map
      (fun si ->
        let good = naive_trace c ~si ~seq in
        Array.map (naive_detects c ~si ~seq ~good) faults)
      sis
  in
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          Seq_fsim.clear_trace_cache ();
          let label fmt = Printf.sprintf fmt domains in
          let prof = Seq_fsim.profile ?pool c ~si ~seq ~faults ~subset in
          Alcotest.(check (array int))
            (label "profile po_time at %d domains")
            (Array.map fst oracle) prof.Seq_fsim.po_time;
          Alcotest.(check bool)
            (label "profile state_diff_at at %d domains")
            true
            (Array.for_all2
               (fun (_, sdiff) bv ->
                 Array.for_all Fun.id (Array.mapi (fun t d -> Bitvec.get bv t = d) sdiff))
               oracle prof.Seq_fsim.state_diff_at);
          let cand = Seq_fsim.candidate_detections ?pool c ~sis ~seq ~faults ~subset in
          Array.iteri
            (fun r row ->
              Alcotest.(check (array bool))
                (label "candidate row at %d domains")
                row
                (Array.init n (Bitmat.get cand r)))
            cand_oracle;
          let verify sub =
            Seq_fsim.verify_required ?pool c ~si ~seq ~faults ~subset:sub
          in
          Alcotest.(check bool)
            (label "verify_required (detected) at %d domains")
            true
            (verify (Array.of_list detected));
          Alcotest.(check bool)
            (label "verify_required (all) at %d domains")
            (List.length detected = n)
            (verify subset)))
    [ 1; 2; 4 ]

(* The combinational (PPSFP) path on registry circuits: over the faults
   the oracle checks, the pattern x fault matrix and the union are
   bit-identical at 1, 2 and 4 domains (70 patterns = two lane groups, so
   the pool really splits), the union is the OR of the rows, per-fault
   pattern sets are the matrix columns, and sampled patterns match Naive
   on single-cycle scan tests. *)
let test_registry_comb_equivalence () =
  List.iter
    (fun name ->
      let c = Asc_circuits.Registry.get name in
      let faults = Collapse.reps (Collapse.run c) in
      let n = Array.length faults in
      let indices = oracle_indices c name ~n ~sample:40 in
      let only = Bitvec.of_list n indices in
      let rng = Rng.of_name ~seed:2 (name ^ "/kernel-comb") in
      let patterns =
        Array.init 70 (fun _ ->
            Asc_sim.Pattern.random rng ~n_pis:(Circuit.n_inputs c)
              ~n_ffs:(Circuit.n_dffs c))
      in
      let at domains =
        with_pool domains (fun pool ->
            ( Comb_fsim.detect_matrix ?pool ~only c ~patterns ~faults,
              Comb_fsim.detect_union ?pool ~only c ~patterns ~faults ))
      in
      let mat, union = at 1 in
      let rows m = Array.init (Array.length patterns) (Bitmat.row m) in
      List.iter
        (fun domains ->
          let mat', union' = at domains in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d domains = 1 domain" name domains)
            true
            (Array.for_all2 Bitvec.equal (rows mat) (rows mat')
            && Bitvec.equal union union'))
        [ 2; 4 ];
      let or_rows = Bitvec.create n in
      Array.iter (fun row -> Bitvec.union_into ~into:or_rows row) (rows mat);
      Alcotest.(check bool) (name ^ ": union = OR of rows") true
        (Bitvec.equal union or_rows);
      let fi = List.hd indices in
      Alcotest.(check bool) (name ^ ": patterns_detecting = matrix column") true
        (Bitvec.equal
           (Comb_fsim.patterns_detecting c ~patterns ~fault:faults.(fi))
           (Bitvec.init (Array.length patterns) (fun p -> Bitmat.get mat p fi)));
      Array.iteri
        (fun p (pat : Asc_sim.Pattern.t) ->
          if p mod 7 = 0 then
            List.iter
              (fun (fi, expected) ->
                if Bitmat.get mat p fi <> expected then
                  Alcotest.failf "%s: pattern %d, fault %s: kernel %b, Naive %b" name p
                    (Fault.to_string c faults.(fi))
                    (Bitmat.get mat p fi) expected)
              (naive_detect_vector c ~si:pat.state ~seq:[| pat.pis |] ~faults ~indices))
        patterns)
    Asc_circuits.Registry.names

(* --- Properties on random circuits ------------------------------------ *)

let small_circuit seed =
  Asc_circuits.Profile.make "kq" 4 3 5 45 ~t0_budget:10
  |> Asc_circuits.Generator.generate ~seed

(* The levelized kernel only evaluates the fanout cone of the fault sites
   and diverged flip-flops, with early exit on reconvergence and
   detected-lane pruning; Naive re-simulates every gate of every cycle,
   one fault at a time.  On random circuits and random fault subsets
   both must agree on detection and on the full detection-time profile
   (the profile runs unpruned, so it pins the cone walk everywhere, not
   just until first detection). *)
let prop_cone_matches_full_resim =
  QCheck.Test.make
    ~name:"cone-limited fault evaluation matches full re-simulation" ~count:12
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let all = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 23) in
      (* A random subset of the collapsed faults, so fault-site seeds sit
         at arbitrary places in the schedule. *)
      let faults =
        Array.of_list
          (List.filter (fun _ -> Rng.bool rng) (Array.to_list all))
      in
      let faults = if Array.length faults = 0 then all else faults in
      let subset = Array.init (Array.length faults) Fun.id in
      let si = Rng.bool_array rng (Circuit.n_dffs c) in
      let seq = Array.init 7 (fun _ -> Rng.bool_array rng (Circuit.n_inputs c)) in
      Seq_fsim.clear_trace_cache ();
      let det = Seq_fsim.detect c ~si ~seq ~faults in
      let prof = Seq_fsim.profile c ~si ~seq ~faults ~subset in
      let good = naive_trace c ~si ~seq in
      let ok = ref true in
      Array.iteri
        (fun fi f ->
          let po_time, sdiff = naive_profile c ~si ~seq ~good f in
          if Bitvec.get det fi <> naive_detects c ~si ~seq ~good f then ok := false;
          if prof.Seq_fsim.po_time.(fi) <> po_time then ok := false;
          Array.iteri
            (fun t d ->
              if Bitvec.get prof.Seq_fsim.state_diff_at.(fi) t <> d then ok := false)
            sdiff)
        faults;
      !ok)

(* Combinational path: the per-pattern matrix, the union and the
   per-fault pattern sets all match Naive on single-cycle scan tests. *)
let prop_comb_matches_naive =
  QCheck.Test.make ~name:"Comb_fsim matrix, union and per-fault patterns match Naive"
    ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = small_circuit seed in
      let faults = Collapse.reps (Collapse.run c) in
      let rng = Rng.create (seed + 29) in
      let patterns =
        Array.init 40 (fun _ ->
            Asc_sim.Pattern.random rng ~n_pis:(Circuit.n_inputs c)
              ~n_ffs:(Circuit.n_dffs c))
      in
      let mat = Comb_fsim.detect_matrix c ~patterns ~faults in
      let union = Comb_fsim.detect_union c ~patterns ~faults in
      let oracle =
        Array.map
          (fun (p : Asc_sim.Pattern.t) ->
            let si = p.state and seq = [| p.pis |] in
            let good = naive_trace c ~si ~seq in
            Array.map (naive_detects c ~si ~seq ~good) faults)
          patterns
      in
      let ok = ref true in
      Array.iteri
        (fun fi f ->
          let by_pattern = Comb_fsim.patterns_detecting c ~patterns ~fault:f in
          let any = ref false in
          Array.iteri
            (fun p row ->
              if row.(fi) then any := true;
              if Bitmat.get mat p fi <> row.(fi) then ok := false;
              if Bitvec.get by_pattern p <> row.(fi) then ok := false)
            oracle;
          if Bitvec.get union fi <> !any then ok := false)
        faults;
      !ok)

let suite =
  [
    ( "kernel",
      [
        Alcotest.test_case
          "registry detect: levelized = reference (Naive) at 1/2/4 domains" `Slow
          test_registry_detect_equivalence;
        Alcotest.test_case "profile/candidates/verify: levelized kernel = Naive"
          `Quick test_rich_ops_equivalence;
        Alcotest.test_case
          "registry comb: matrix, union and columns = Naive at 1/2/4 domains" `Slow
          test_registry_comb_equivalence;
        qtest prop_cone_matches_full_resim;
        qtest prop_comb_matches_naive;
      ] );
  ]
