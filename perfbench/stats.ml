(* Summary statistics for the benchmark's timings.

   Percentiles are nearest-rank: the p-th percentile of n samples is the
   sample at rank ceil(p/100 * n) of the sorted list.  A tail percentile
   is reported only when at least [min_beyond] samples lie above that
   rank, so a "p99" over 50 samples (which would just be the maximum)
   is never printed.  The median is always reported, with its sample
   count. *)

let min_beyond = 10

let rank ~p n = max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))))

let nearest_rank ~p xs =
  match xs with
  | [] -> invalid_arg "Stats.nearest_rank: no samples"
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      a.(rank ~p (Array.length a) - 1)

(* Samples strictly above the nearest-rank position. *)
let beyond ~p n = n - rank ~p n

let tail ~p xs =
  let n = List.length xs in
  if n > 0 && beyond ~p n >= min_beyond then Some (nearest_rank ~p xs) else None

let median xs = nearest_rank ~p:50.0 xs
