(* Tests for Asc_sim: gate truth tables, the bit-parallel kernel and
   Engine3 vs the naive reference, 3-valued monotonicity, override
   injection. *)

open Asc_sim
module Circuit = Asc_netlist.Circuit
module Gate = Asc_netlist.Gate

let qtest = QCheck_alcotest.to_alcotest

(* --- Truth tables ---------------------------------------------------- *)

let test_gate2_truth_tables () =
  let check kind ins expected =
    Alcotest.(check bool)
      (Gate.to_string kind ^ " " ^ String.concat "" (List.map string_of_bool ins))
      expected (Naive.eval_gate2 kind ins)
  in
  check Gate.And [ true; true ] true;
  check Gate.And [ true; false ] false;
  check Gate.Nand [ true; true ] false;
  check Gate.Or [ false; false ] false;
  check Gate.Or [ false; true ] true;
  check Gate.Nor [ false; false ] true;
  check Gate.Xor [ true; true ] false;
  check Gate.Xor [ true; false ] true;
  check Gate.Xor [ true; true; true ] true;
  check Gate.Xnor [ true; false ] false;
  check Gate.Not [ true ] false;
  check Gate.Buf [ true ] true;
  check Gate.Const0 [] false;
  check Gate.Const1 [] true

let test_gate3_pessimism () =
  (* X-dominated cases. *)
  let x = None and t = Some true and f = Some false in
  Alcotest.(check bool) "and 0 X = 0" true (Naive.eval_gate3 Gate.And [ f; x ] = f);
  Alcotest.(check bool) "and 1 X = X" true (Naive.eval_gate3 Gate.And [ t; x ] = x);
  Alcotest.(check bool) "or 1 X = 1" true (Naive.eval_gate3 Gate.Or [ t; x ] = t);
  Alcotest.(check bool) "or 0 X = X" true (Naive.eval_gate3 Gate.Or [ f; x ] = x);
  Alcotest.(check bool) "xor 1 X = X" true (Naive.eval_gate3 Gate.Xor [ t; x ] = x);
  Alcotest.(check bool) "not X = X" true (Naive.eval_gate3 Gate.Not [ x ] = x);
  Alcotest.(check bool) "nand 0 X = 1" true (Naive.eval_gate3 Gate.Nand [ f; x ] = t)

(* 3-valued refinement: replacing X inputs by any binary value refines the
   output (binary outputs never change). *)
let prop_gate3_monotone =
  let kind_gen =
    QCheck.Gen.oneofl
      [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ]
  in
  let v3_gen = QCheck.Gen.oneofl [ Some true; Some false; None ] in
  let gen = QCheck.Gen.(pair kind_gen (list_size (int_range 2 4) v3_gen)) in
  QCheck.Test.make ~name:"3-valued eval is monotone under refinement" ~count:500
    (QCheck.make gen) (fun (kind, ins) ->
      let out = Naive.eval_gate3 kind ins in
      match out with
      | None -> true
      | Some _ ->
          (* Every refinement of the X inputs yields the same output. *)
          let rec refine acc = function
            | [] -> [ List.rev acc ]
            | Some v :: rest -> refine (Some v :: acc) rest
            | None :: rest ->
                refine (Some true :: acc) rest @ refine (Some false :: acc) rest
          in
          List.for_all
            (fun ins' -> Naive.eval_gate3 kind ins' = out)
            (refine [] ins))

(* --- Parallel kernels vs naive reference ------------------------------ *)

let random_profile seed =
  Asc_circuits.Profile.make "sim-rt" 5 4 6 50 ~t0_budget:10
  |> Asc_circuits.Generator.generate ~seed

(* One fault-free cycle of the levelized kernel: every gate's word. *)
let good_values k c ~pi_words ~state =
  let v = Array.make (Circuit.n_gates c) 0 in
  Kernel.good_cycle k ~pi_words ~state ~v;
  v

let po_words c v = Array.map (Array.get v) (Circuit.outputs c)

let prop_kernel_matches_naive =
  QCheck.Test.make ~name:"Kernel lanes match naive scalar runs" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let c = random_profile seed in
      let rng = Asc_util.Rng.create (seed + 1) in
      let n_pis = Circuit.n_inputs c and n_ffs = Circuit.n_dffs c in
      let len = 6 in
      (* Distinct per-lane stimuli for 7 lanes. *)
      let lanes = 7 in
      let inits = Array.init lanes (fun _ -> Asc_util.Rng.bool_array rng n_ffs) in
      let seqs =
        Array.init lanes (fun _ ->
            Array.init len (fun _ -> Asc_util.Rng.bool_array rng n_pis))
      in
      let k = Kernel.create c in
      let state =
        Array.init n_ffs (fun i ->
            let w = ref 0 in
            for l = 0 to lanes - 1 do
              if inits.(l).(i) then w := Asc_util.Word.set !w l
            done;
            !w)
      in
      let ok = ref true in
      let naive_runs =
        Array.init lanes (fun l -> Naive.run c ~init:inits.(l) ~seq:seqs.(l))
      in
      for t = 0 to len - 1 do
        let pi_words =
          Array.init n_pis (fun i ->
              let w = ref 0 in
              for l = 0 to lanes - 1 do
                if seqs.(l).(t).(i) then w := Asc_util.Word.set !w l
              done;
              !w)
        in
        let v = good_values k c ~pi_words ~state in
        let pos = po_words c v in
        for l = 0 to lanes - 1 do
          let expected = (fst naive_runs.(l)).(t) in
          for po = 0 to Circuit.n_outputs c - 1 do
            if Asc_util.Word.get pos.(po) l <> expected.(po) then ok := false
          done
        done;
        Kernel.good_capture k ~v ~state
      done;
      (* Final states match too. *)
      for l = 0 to lanes - 1 do
        let expected = snd naive_runs.(l) in
        for i = 0 to n_ffs - 1 do
          if Asc_util.Word.get state.(i) l <> expected.(i) then ok := false
        done
      done;
      !ok)

let prop_engine3_binary_matches_kernel =
  QCheck.Test.make ~name:"Engine3 on binary inputs agrees with Kernel" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let c = random_profile seed in
      let rng = Asc_util.Rng.create (seed + 2) in
      let n_pis = Circuit.n_inputs c and n_ffs = Circuit.n_dffs c in
      let init = Asc_util.Rng.bool_array rng n_ffs in
      let len = 5 in
      let seq = Array.init len (fun _ -> Asc_util.Rng.bool_array rng n_pis) in
      let k = Kernel.create c and e3 = Engine3.create c [] in
      let state = Array.map Asc_util.Word.splat init in
      Engine3.set_state_bools e3 init;
      let ok = ref true in
      Array.iter
        (fun vec ->
          let pi_words = Array.map Asc_util.Word.splat vec in
          let v = good_values k c ~pi_words ~state in
          Engine3.eval_binary e3 ~pi_words;
          Array.iteri
            (fun po w2 ->
              let z, o = Engine3.po_word e3 po in
              if o <> w2 || z <> lnot w2 land Asc_util.Word.mask then ok := false)
            (po_words c v);
          Kernel.good_capture k ~v ~state;
          Engine3.capture e3)
        seq;
      !ok)

let prop_engine3_x_state_refines =
  QCheck.Test.make ~name:"Engine3 from X state is refined by binary runs" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let c = random_profile seed in
      let rng = Asc_util.Rng.create (seed + 3) in
      let n_pis = Circuit.n_inputs c and n_ffs = Circuit.n_dffs c in
      let len = 6 in
      let seq = Array.init len (fun _ -> Asc_util.Rng.bool_array rng n_pis) in
      let e3 = Engine3.create c [] in
      Engine3.set_state_x e3;
      let init = Asc_util.Rng.bool_array rng n_ffs in
      let scalar, _ = Naive.run c ~init ~seq in
      let ok = ref true in
      Array.iteri
        (fun t vec ->
          Engine3.eval_binary e3 ~pi_words:(Array.map Asc_util.Word.splat vec);
          for po = 0 to Circuit.n_outputs c - 1 do
            let z, o = Engine3.po_word e3 po in
            (* Wherever the X-state run is binary, every concrete initial
               state must agree. *)
            if o land 1 = 1 && not scalar.(t).(po) then ok := false;
            if z land 1 = 1 && scalar.(t).(po) then ok := false
          done;
          Engine3.capture e3)
        seq;
      !ok)

(* --- Overrides ------------------------------------------------------- *)

(* Overrides are checked on both simulators: the kernel reports the
   faulty machine as a difference against the good trace ([po_diff],
   [state_diff]), the naive one as plain faulty values. *)

let test_override_output_injection () =
  (* Force a PI stuck in half the lanes and observe a NOT of it. *)
  let b = Asc_netlist.Builder.create "ovr" in
  let a = Asc_netlist.Builder.add_input b "a" in
  let g = Asc_netlist.Builder.add_gate b Gate.Not "g" [ a ] in
  Asc_netlist.Builder.add_output b g;
  let c = Asc_netlist.Builder.finalize b in
  let lanes = 0b1010 in
  let o = Override.output ~gate:a ~stuck:true ~lanes in
  let k = Kernel.create c in
  let gw = good_values k c ~pi_words:[| 0 |] ~state:[||] in
  Kernel.set_overrides k [ o ];
  Kernel.reset k;
  Kernel.cycle k ~gw;
  (* a = 0 except overridden lanes -> NOT a = all ones except lanes. *)
  Alcotest.(check int) "not of injected" (Asc_util.Word.mask land lnot lanes)
    ((po_words c gw).(0) lxor Kernel.po_diff k);
  let v = Naive.eval_comb ~overrides:[ o ] c ~pis:[| false |] ~state:[||] in
  Alcotest.(check bool) "naive not of injected" false (Naive.outputs_of c v).(0)

let test_override_input_pin_is_branch () =
  (* A branch fault affects only the faulted consumer: [a] fans out to a
     PO through g1 and to a flip-flop through g2. *)
  let b = Asc_netlist.Builder.create "branch" in
  let a = Asc_netlist.Builder.add_input b "a" in
  let g1 = Asc_netlist.Builder.add_gate b Gate.Buf "g1" [ a ] in
  let g2 = Asc_netlist.Builder.add_gate b Gate.Buf "g2" [ a ] in
  let q = Asc_netlist.Builder.add_dff b "q" in
  Asc_netlist.Builder.set_dff_input b q g2;
  Asc_netlist.Builder.add_output b g1;
  let c = Asc_netlist.Builder.finalize b in
  let k = Kernel.create c in
  let gw = good_values k c ~pi_words:[| 0 |] ~state:[| 0 |] in
  let check name g ~po ~ff =
    (* Stuck-1 on [g]'s input pin only. *)
    let o = Override.input ~gate:g ~pin:0 ~stuck:true ~lanes:Asc_util.Word.mask in
    Kernel.set_overrides k [ o ];
    Kernel.reset k;
    Kernel.cycle k ~gw;
    Alcotest.(check int) (name ^ ": PO branch") (Asc_util.Word.splat po)
      (Kernel.po_diff k);
    Kernel.finish_cycle k ~gw;
    Alcotest.(check int) (name ^ ": DFF branch") (Asc_util.Word.splat ff)
      (Kernel.state_diff k 0);
    let v = Naive.eval_comb ~overrides:[ o ] c ~pis:[| false |] ~state:[| false |] in
    Alcotest.(check bool) (name ^ ": naive PO") po (Naive.outputs_of c v).(0);
    Alcotest.(check bool) (name ^ ": naive DFF") ff
      (Naive.next_state_of ~overrides:[ o ] c v).(0)
  in
  check "g1 pin" g1 ~po:true ~ff:false;
  check "g2 pin" g2 ~po:false ~ff:true

let test_override_dff_pin () =
  (* A DFF D-pin fault corrupts the captured value only. *)
  let b = Asc_netlist.Builder.create "dpin" in
  let a = Asc_netlist.Builder.add_input b "a" in
  let q = Asc_netlist.Builder.add_dff b "q" in
  Asc_netlist.Builder.set_dff_input b q a;
  let g = Asc_netlist.Builder.add_gate b Gate.Buf "g" [ q ] in
  Asc_netlist.Builder.add_output b g;
  let c = Asc_netlist.Builder.finalize b in
  let o = Override.input ~gate:q ~pin:0 ~stuck:false ~lanes:Asc_util.Word.mask in
  let k = Kernel.create c in
  let state = [| Asc_util.Word.mask |] in
  let pi_words = [| Asc_util.Word.mask |] in
  Kernel.set_overrides k [ o ];
  Kernel.reset k;
  let gw0 = good_values k c ~pi_words ~state in
  Kernel.cycle k ~gw:gw0;
  (* Current state unaffected. *)
  Alcotest.(check int) "q unaffected now" 0 (Kernel.po_diff k);
  Kernel.finish_cycle k ~gw:gw0;
  Kernel.good_capture k ~v:gw0 ~state;
  let gw1 = good_values k c ~pi_words ~state in
  Kernel.cycle k ~gw:gw1;
  (* Captured value was forced to 0. *)
  Alcotest.(check int) "capture forced 0" 0 ((po_words c gw1).(0) lxor Kernel.po_diff k);
  let responses, final =
    Naive.run ~overrides:[ o ] c ~init:[| true |] ~seq:[| [| true |]; [| true |] |]
  in
  Alcotest.(check (array (array bool))) "naive responses" [| [| true |]; [| false |] |]
    responses;
  Alcotest.(check (array bool)) "naive final state" [| false |] final

let suite =
  [
    ( "sim",
      [
        Alcotest.test_case "2-valued truth tables" `Quick test_gate2_truth_tables;
        Alcotest.test_case "3-valued pessimism" `Quick test_gate3_pessimism;
        qtest prop_gate3_monotone;
        qtest prop_kernel_matches_naive;
        qtest prop_engine3_binary_matches_kernel;
        qtest prop_engine3_x_state_refines;
        Alcotest.test_case "override output" `Quick test_override_output_injection;
        Alcotest.test_case "override branch pin" `Quick test_override_input_pin_is_branch;
        Alcotest.test_case "override dff pin" `Quick test_override_dff_pin;
      ] );
  ]
