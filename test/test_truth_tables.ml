(* Exhaustive truth-table checks: every gate kind, every input combination
   (arities 2 and 3 for the n-ary kinds), in the scalar reference, the
   2-valued kernel, the 3-valued engine, and PODEM's internal evaluator's
   observable behaviour (via engine agreement). *)

open Asc_util
module Gate = Asc_netlist.Gate
module Builder = Asc_netlist.Builder

let kinds_nary = [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ]

let reference kind ins =
  match (kind : Gate.kind) with
  | Gate.And -> List.for_all Fun.id ins
  | Gate.Nand -> not (List.for_all Fun.id ins)
  | Gate.Or -> List.exists Fun.id ins
  | Gate.Nor -> not (List.exists Fun.id ins)
  | Gate.Xor -> List.fold_left ( <> ) false ins
  | Gate.Xnor -> not (List.fold_left ( <> ) false ins)
  | Gate.Not -> not (List.hd ins)
  | Gate.Buf -> List.hd ins
  | Gate.Const0 -> false
  | Gate.Const1 -> true
  | Gate.Input | Gate.Dff -> assert false

let circuit_for kind arity =
  let b = Builder.create "tt" in
  let pis = List.init arity (fun i -> Builder.add_input b (Printf.sprintf "i%d" i)) in
  let g = Builder.add_gate b kind "g" pis in
  Builder.add_output b g;
  Builder.finalize b

let exhaustive_case kind arity () =
  let c = circuit_for kind arity in
  let k = Asc_sim.Kernel.create c in
  let gv = Array.make (Asc_netlist.Circuit.n_gates c) 0 in
  let po = (Asc_netlist.Circuit.outputs c).(0) in
  let e3 = Asc_sim.Engine3.create c [] in
  for combo = 0 to (1 lsl arity) - 1 do
    let ins = List.init arity (fun i -> (combo lsr i) land 1 = 1) in
    let expected = reference kind ins in
    (* Scalar reference simulator. *)
    let v = Asc_sim.Naive.eval_comb c ~pis:(Array.of_list ins) ~state:[||] in
    Alcotest.(check bool)
      (Printf.sprintf "%s/%d naive %d" (Gate.to_string kind) arity combo)
      expected
      (Asc_sim.Naive.outputs_of c v).(0);
    (* 2-valued kernel. *)
    Asc_sim.Kernel.good_cycle k ~pi_words:(Array.of_list (List.map Word.splat ins))
      ~state:[||] ~v:gv;
    Alcotest.(check int)
      (Printf.sprintf "%s/%d kernel %d" (Gate.to_string kind) arity combo)
      (Word.splat expected) gv.(po);
    (* 3-valued engine with binary inputs. *)
    Asc_sim.Engine3.eval_binary e3 ~pi_words:(Array.of_list (List.map Word.splat ins));
    let z, o = Asc_sim.Engine3.po_word e3 0 in
    Alcotest.(check int)
      (Printf.sprintf "%s/%d engine3 one %d" (Gate.to_string kind) arity combo)
      (Word.splat expected) o;
    Alcotest.(check int)
      (Printf.sprintf "%s/%d engine3 zero %d" (Gate.to_string kind) arity combo)
      (Word.splat (not expected))
      z
  done

(* 3-valued exhaustive for arity 2 over {0,1,X}^2: the engine output must
   equal the naive 3-valued evaluator's. *)
let exhaustive3_case kind () =
  let c = circuit_for kind 2 in
  let e3 = Asc_sim.Engine3.create c [] in
  let values = [ Some false; Some true; None ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let expected = Asc_sim.Naive.eval_gate3 kind [ a; b ] in
          let word_of = function
            | Some true -> (0, Word.mask)
            | Some false -> (Word.mask, 0)
            | None -> (0, 0)
          in
          let az, ao = word_of a and bz, bo = word_of b in
          Asc_sim.Engine3.eval e3 ~pi_z:[| az; bz |] ~pi_o:[| ao; bo |];
          let z, o = Asc_sim.Engine3.po_word e3 0 in
          let got =
            if o = Word.mask && z = 0 then Some true
            else if z = Word.mask && o = 0 then Some false
            else if z = 0 && o = 0 then None
            else Alcotest.fail "mixed lanes on uniform input"
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s 3v" (Gate.to_string kind))
            true (got = expected))
        values)
    values

let cases =
  List.concat_map
    (fun kind ->
      [
        Alcotest.test_case
          (Printf.sprintf "%s arity 2 exhaustive" (Gate.to_string kind))
          `Quick (exhaustive_case kind 2);
        Alcotest.test_case
          (Printf.sprintf "%s arity 3 exhaustive" (Gate.to_string kind))
          `Quick (exhaustive_case kind 3);
        Alcotest.test_case
          (Printf.sprintf "%s 3-valued exhaustive" (Gate.to_string kind))
          `Quick (exhaustive3_case kind);
      ])
    kinds_nary

let unary_cases =
  [
    Alcotest.test_case "NOT exhaustive" `Quick (fun () ->
        let c = circuit_for Gate.Not 1 in
        List.iter
          (fun v ->
            let r = Asc_sim.Naive.eval_comb c ~pis:[| v |] ~state:[||] in
            Alcotest.(check bool) "not" (not v) (Asc_sim.Naive.outputs_of c r).(0))
          [ true; false ]);
    Alcotest.test_case "BUF exhaustive" `Quick (fun () ->
        let c = circuit_for Gate.Buf 1 in
        List.iter
          (fun v ->
            let r = Asc_sim.Naive.eval_comb c ~pis:[| v |] ~state:[||] in
            Alcotest.(check bool) "buf" v (Asc_sim.Naive.outputs_of c r).(0))
          [ true; false ]);
  ]

let suite = [ ("truth-tables", cases @ unary_cases) ]
