(* Partially specified test cubes produced by PODEM.

   A cube assigns 0, 1 or X to each primary input and each present-state
   variable.  [fill] randomises the X positions to obtain a concrete
   pattern; randomised fill is the usual way unspecified ATPG inputs are
   completed and gives the fault simulator extra incidental detections. *)

type v = Zero | One | X

type t = { pis : v array; state : v array }

let create ~n_pis ~n_ffs = { pis = Array.make n_pis X; state = Array.make n_ffs X }

let specified = function Zero | One -> true | X -> false

let specified_count t =
  let count = Array.fold_left (fun acc v -> if specified v then acc + 1 else acc) 0 in
  count t.pis + count t.state

let fill rng t : Asc_sim.Pattern.t =
  let concretize v =
    match v with Zero -> false | One -> true | X -> Asc_util.Rng.bool rng
  in
  { pis = Array.map concretize t.pis; state = Array.map concretize t.state }

let to_string t =
  let char_of = function Zero -> '0' | One -> '1' | X -> 'x' in
  let s a = String.init (Array.length a) (fun i -> char_of a.(i)) in
  s t.state ^ "/" ^ s t.pis
