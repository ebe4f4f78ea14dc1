(* Dense bit matrices, stored row-major as one bit vector per row.

   Used for detection matrices (tests x faults) in Phase 3 set covering and
   in the static combining procedure of [4]. *)

type t = { rows : int; cols : int; data : Bitvec.t array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Bitmat.create";
  { rows; cols; data = Array.init rows (fun _ -> Bitvec.create cols) }

let rows t = t.rows
let cols t = t.cols

let row t r =
  if r < 0 || r >= t.rows then invalid_arg "Bitmat.row";
  t.data.(r)

let get t r c = Bitvec.get (row t r) c
let set t r c = Bitvec.set (row t r) c
let clear t r c = Bitvec.clear (row t r) c

let set_row t r v =
  if Bitvec.length v <> t.cols then invalid_arg "Bitmat.set_row";
  t.data.(r) <- v

(* Union of all rows. *)
let column_union t =
  let acc = Bitvec.create t.cols in
  Array.iter (fun r -> Bitvec.union_into ~into:acc r) t.data;
  acc

(* Number of rows with bit [c] set. *)
let column_count t c =
  let n = ref 0 in
  for r = 0 to t.rows - 1 do
    if Bitvec.get t.data.(r) c then incr n
  done;
  !n

(* Per-column counts, in one pass. *)
let column_counts t =
  let counts = Array.make t.cols 0 in
  Array.iter (fun r -> Bitvec.iter_set (fun c -> counts.(c) <- counts.(c) + 1) r) t.data;
  counts

(* Highest row index with bit [c] set, or [-1]. *)
let last_row_with t c =
  let rec go r = if r < 0 then -1 else if Bitvec.get t.data.(r) c then r else go (r - 1) in
  go (t.rows - 1)

let copy t = { t with data = Array.map Bitvec.copy t.data }
