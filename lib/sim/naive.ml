(* Scalar reference simulator.

   Direct, obviously-correct evaluation over [bool] (2-valued) and
   [bool option] (3-valued, [None] = X) values, with fault injection
   through {!Override}s.  The test suite checks the bit-parallel kernels
   and the fault simulators against this module — it is the one oracle;
   it is also convenient for debugging small circuits. *)

module Circuit = Asc_netlist.Circuit
module Gate = Asc_netlist.Gate

let eval_gate2 kind (ins : bool list) =
  match (kind : Gate.kind), ins with
  | Gate.And, _ -> List.for_all Fun.id ins
  | Gate.Nand, _ -> not (List.for_all Fun.id ins)
  | Gate.Or, _ -> List.exists Fun.id ins
  | Gate.Nor, _ -> not (List.exists Fun.id ins)
  | Gate.Xor, _ -> List.fold_left (fun acc b -> acc <> b) false ins
  | Gate.Xnor, _ -> not (List.fold_left (fun acc b -> acc <> b) false ins)
  | Gate.Not, [ a ] -> not a
  | Gate.Buf, [ a ] -> a
  | Gate.Const0, [] -> false
  | Gate.Const1, [] -> true
  | (Gate.Not | Gate.Buf | Gate.Const0 | Gate.Const1 | Gate.Input | Gate.Dff), _ ->
      invalid_arg "Naive.eval_gate2: bad gate/arity"

(* Pessimistic 3-valued evaluation, [None] = X. *)
let rec eval_gate3 kind (ins : bool option list) =
  let all_known = List.for_all Option.is_some ins in
  match (kind : Gate.kind), ins with
  | Gate.And, _ ->
      if List.exists (( = ) (Some false)) ins then Some false
      else if all_known then Some true
      else None
  | Gate.Nand, _ -> Option.map not (eval_gate3 Gate.And ins)
  | Gate.Or, _ ->
      if List.exists (( = ) (Some true)) ins then Some true
      else if all_known then Some false
      else None
  | Gate.Nor, _ -> Option.map not (eval_gate3 Gate.Or ins)
  | Gate.Xor, _ ->
      if all_known then
        Some (List.fold_left (fun acc b -> acc <> Option.get b) false ins)
      else None
  | Gate.Xnor, _ -> Option.map not (eval_gate3 Gate.Xor ins)
  | Gate.Not, [ a ] -> Option.map not a
  | Gate.Buf, [ a ] -> a
  | Gate.Const0, [] -> Some false
  | Gate.Const1, [] -> Some true
  | (Gate.Not | Gate.Buf | Gate.Const0 | Gate.Const1 | Gate.Input | Gate.Dff), _ ->
      invalid_arg "Naive.eval_gate3: bad gate/arity"

(* Full combinational evaluation; returns the value of every gate.

   [overrides] inject faults with the {!Override} semantics: an output
   override ([pin = -1]) forces the gate's value (a source's value as
   its fanouts see it), a pin override forces one fanin as seen by that
   gate only.  The scalar machine is one lane, so every override applies
   whatever its [lanes] mask; callers inject one fault per run. *)
let eval_comb ?(overrides = []) c ~pis ~state =
  let n = Circuit.n_gates c in
  let tbl = Override.table n overrides in
  let forced g pin value =
    List.fold_left
      (fun b (o : Override.t) -> if o.pin = pin then o.stuck else b)
      value (Override.at tbl g)
  in
  let v = Array.make n false in
  Array.iteri (fun i g -> v.(g) <- forced g (-1) pis.(i)) (Circuit.inputs c);
  Array.iteri (fun i g -> v.(g) <- forced g (-1) state.(i)) (Circuit.dffs c);
  Array.iter
    (fun g ->
      let ins =
        Array.to_list (Array.mapi (fun k f -> forced g k v.(f)) (Circuit.fanins c g))
      in
      v.(g) <- forced g (-1) (eval_gate2 (Circuit.kind c g) ins))
    (Circuit.order c);
  v

let outputs_of c v = Array.map (fun g -> v.(g)) (Circuit.outputs c)

(* The captured state: each flip-flop's D value, or its pin-0 override. *)
let next_state_of ?(overrides = []) c v =
  Array.map
    (fun d ->
      List.fold_left
        (fun b (o : Override.t) -> if o.gate = d && o.pin = 0 then o.stuck else b)
        v.(Circuit.dff_input c d) overrides)
    (Circuit.dffs c)

(* Run a PI sequence from a binary initial state; returns the per-cycle PO
   vectors and the final state. *)
let run ?overrides c ~init ~seq =
  let state = ref init in
  let responses =
    Array.map
      (fun pis ->
        let v = eval_comb ?overrides c ~pis ~state:!state in
        state := next_state_of ?overrides c v;
        outputs_of c v)
      seq
  in
  (responses, !state)

let eval_comb3 c ~pis ~state =
  let n = Circuit.n_gates c in
  let v = Array.make n None in
  Array.iteri (fun i g -> v.(g) <- pis.(i)) (Circuit.inputs c);
  Array.iteri (fun i g -> v.(g) <- state.(i)) (Circuit.dffs c);
  Array.iter
    (fun g ->
      let ins = Array.to_list (Array.map (fun f -> v.(f)) (Circuit.fanins c g)) in
      v.(g) <- eval_gate3 (Circuit.kind c g) ins)
    (Circuit.order c);
  v

let run3 c ~init ~seq =
  let state = ref init in
  let responses =
    Array.map
      (fun pis ->
        let pis = Array.map (fun b -> Some b) pis in
        let v = eval_comb3 c ~pis ~state:!state in
        state := Array.map (fun d -> v.(Circuit.dff_input c d)) (Circuit.dffs c);
        Array.map (fun g -> v.(g)) (Circuit.outputs c))
      seq
  in
  (responses, !state)
