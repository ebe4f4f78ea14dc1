(* Packed bit vectors.

   Used throughout for fault sets (detected / undetected / target masks) and
   for per-fault time profiles.  Words carry [Word.width] bits each; the
   trailing word is kept masked so that [count] and [equal] are exact. *)

type t = { len : int; words : int array }

let bpw = Word.width

let nwords len = (len + bpw - 1) / bpw

(* Mask off trailing bits beyond [len].  When [len] is a multiple of [bpw]
   the last word is fully used and needs no mask — shifting by a full word
   width there would be undefined ([1 lsl 62] overflows a 62-bit lane
   word). *)
let mask_trailing words len =
  let used = len mod bpw in
  if used > 0 then begin
    let last = nwords len - 1 in
    words.(last) <- words.(last) land ((1 lsl used) - 1)
  end

let create ?(default = false) len =
  if len < 0 then invalid_arg "Bitvec.create: negative length";
  let words = Array.make (max 1 (nwords len)) (if default then Word.mask else 0) in
  if default then if len = 0 then words.(0) <- 0 else mask_trailing words len;
  { len; words }

let length t = t.len

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Bitvec: index out of bounds"

let get t i =
  check t i;
  Word.get t.words.(i / bpw) (i mod bpw)

let set t i =
  check t i;
  t.words.(i / bpw) <- Word.set t.words.(i / bpw) (i mod bpw)

let clear t i =
  check t i;
  t.words.(i / bpw) <- Word.clear t.words.(i / bpw) (i mod bpw)

let copy t = { len = t.len; words = Array.copy t.words }

let fill t b =
  if b then begin
    Array.fill t.words 0 (Array.length t.words) Word.mask;
    if t.len = 0 then t.words.(0) <- 0 else mask_trailing t.words t.len
  end
  else Array.fill t.words 0 (Array.length t.words) 0

let same_len a b =
  if a.len <> b.len then invalid_arg "Bitvec: length mismatch"

let union_into ~into src =
  same_len into src;
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) lor src.words.(i)
  done

let inter_into ~into src =
  same_len into src;
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) land src.words.(i)
  done

let diff_into ~into src =
  same_len into src;
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) land lnot src.words.(i)
  done

let union a b = let r = copy a in union_into ~into:r b; r
let inter a b = let r = copy a in inter_into ~into:r b; r
let diff a b = let r = copy a in diff_into ~into:r b; r

let count t = Array.fold_left (fun acc w -> acc + Word.popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let equal a b = a.len = b.len && a.words = b.words

(* [subset a b] is true when every bit of [a] is also set in [b]. *)
let subset a b =
  same_len a b;
  let rec go i =
    i >= Array.length a.words || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1))
  in
  go 0

let iter_set f t =
  for w = 0 to Array.length t.words - 1 do
    let base = w * bpw in
    Word.iter_set (fun i -> f (base + i)) t.words.(w)
  done

let fold_set f acc t =
  let acc = ref acc in
  iter_set (fun i -> acc := f !acc i) t;
  !acc

let to_list t = List.rev (fold_set (fun acc i -> i :: acc) [] t)

let first_set t =
  let rec go w =
    if w >= Array.length t.words then -1
    else if t.words.(w) = 0 then go (w + 1)
    else (w * bpw) + Word.lowest_set t.words.(w)
  in
  go 0

let of_list len l =
  let t = create len in
  List.iter (fun i -> set t i) l;
  t

let init len f =
  let t = create len in
  for i = 0 to len - 1 do
    if f i then set t i
  done;
  t

let to_string t = String.init t.len (fun i -> if get t i then '1' else '0')
