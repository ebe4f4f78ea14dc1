(* Open-loop load for the serve-fleet workload.

   Everything a run sends is fixed before the first request goes out: the
   spec list (which jobs, in an order drawn from the workload seed) and
   the arrival schedule (a constant rate per step).  Requests go out when
   due whatever the fleet is doing, so a stall does not slow the
   generator down; each request's latency is timed from the moment it
   was due, not from when it was sent, and the generator reports how
   late it ran. *)

module J = Asc_util.Json
module Rng = Asc_util.Rng

type spec = { circuit : string; seed : int; t0 : string }

(* Small circuits only, so the fleet's capacity is a few jobs per second
   and a step takes seconds, not minutes. *)
let circuits = [| "s27"; "b01"; "b02"; "b06"; "s298"; "s344"; "s382"; "b03" |]

let t0s = [| "directed"; "random" |]

let kinds = Array.length circuits * Array.length t0s

(* Block [b]: every (circuit, T0) kind once, at circuit seed [b + 1].
   Blocks are the same for every workload seed: across seeds, jobs from
   seed-derived circuits made the fleet's latency and N_cyc sums spread
   by 10-60%, far past any usable bound. *)
let block b =
  Array.init kinds (fun k ->
      { circuit = circuits.(k mod Array.length circuits); seed = b + 1;
        t0 = t0s.(k / Array.length circuits) })

(* The low-rate probe: [n] s298 jobs at circuit seeds from 101 up, both
   T0 sources, in a fixed order.  One mid-size circuit, so its median is
   a median of like service times: in a mixed block the median falls in
   the gap between the 10 ms and the 300 ms jobs, and moved between 0.13 s
   and 0.54 s from run to run. *)
let probe n =
  List.init n (fun k -> { circuit = "s298"; seed = 101 + (k / 2); t0 = t0s.(k mod 2) })

(* A step's specs: its blocks, in an order drawn from the workload seed. *)
let step_specs ~seed ~name blocks =
  let a = Array.concat (List.map block blocks) in
  Rng.shuffle (Rng.of_name ~seed ("perfbench/order/" ^ name)) a;
  Array.to_list a

(* Due times (seconds from the step's start) of [n] arrivals at a
   constant [rate]. *)
let arrivals ~rate ~n = List.init n (fun k -> float_of_int k /. rate)

let submit_line ~id ~want_tset s =
  J.to_string ~compact:true
    (J.Obj
       [
         ("op", J.Str "submit"); ("id", J.Int id); ("circuit", J.Str s.circuit);
         ("seed", J.Int s.seed); ("t0", J.Str s.t0); ("tset", J.Bool want_tset);
       ])
  ^ "\n"

(* --- Sending requests ------------------------------------------------- *)

type request = { due : float;  (** Absolute [Unix.gettimeofday] time. *) line : string }

type reply = {
  done_at : float;  (** Absolute time the reply arrived. *)
  latency : float;  (** From the due time to the response. *)
  json : J.t;
}

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* Send [reqs] (ascending [due]) round-robin over [conns], each carrying
   its index as the submit [id], and collect the replies until all have
   arrived or [deadline] passes.  Returns the replies by index ([None]
   for requests never answered) and the largest send lateness. *)
let drive ~conns ~deadline (reqs : request array) =
  let n = Array.length reqs in
  let replies = Array.make n None in
  let bufs = List.map (fun fd -> (fd, Buffer.create 65536)) conns in
  let conns = Array.of_list conns in
  let chunk = Bytes.create 65536 in
  let next = ref 0 and answered = ref 0 and late_max = ref 0.0 in
  let handle_line line =
    match J.parse line with
    | Error _ -> ()
    | Ok json -> (
        match Option.bind (J.member "id" json) J.as_int with
        | Some i when i >= 0 && i < n && replies.(i) = None ->
            let now = Unix.gettimeofday () in
            replies.(i) <- Some { done_at = now; latency = now -. reqs.(i).due; json };
            incr answered
        | _ -> ())
  in
  let read fd buf =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> raise End_of_file
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        let text = Buffer.contents buf in
        let lines = String.split_on_char '\n' text in
        let rec go = function
          | [ rest ] ->
              Buffer.clear buf;
              Buffer.add_string buf rest
          | line :: more ->
              handle_line line;
              go more
          | [] -> ()
        in
        go lines
  in
  (try
     while !answered < n && Unix.gettimeofday () < deadline do
       let now = Unix.gettimeofday () in
       while !next < n && reqs.(!next).due <= now do
         let i = !next in
         late_max := Float.max !late_max (Unix.gettimeofday () -. reqs.(i).due);
         write_all conns.(i mod Array.length conns) reqs.(i).line 0;
         incr next
       done;
       let wake = if !next < n then reqs.(!next).due else deadline in
       let timeout = Float.max 0.0 (Float.min wake deadline -. Unix.gettimeofday ()) in
       match Unix.select (Array.to_list conns) [] [] timeout with
       | readable, _, _ -> List.iter (fun fd -> read fd (List.assoc fd bufs)) readable
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     done
   with End_of_file | Unix.Unix_error _ -> ());
  (replies, !late_max)
