(* Layer self-time from the spans the program already emits.

   A span's self time is its duration minus the time its direct child
   spans cover, on its own track.  Self times of disjoint root spans
   therefore add up to the roots' wall time, unlike the inclusive
   [Telemetry.span_totals], which count nested time once per level.

   Every span name maps to one layer metric ([layer_of]); the benchmark
   wraps each of its own calls into the program in a ["bench:..."] span,
   so the glue a public call runs outside the library's spans is
   attributed too.  A span name the map does not know (a span added to
   the program later) lands in [unmapped] until the map learns it. *)

module Telemetry = Asc_util.Telemetry

(* The pipeline phase spans; [layer_of] sees the nearest one enclosing a
   span, because [Seq_fsim.verify_required] serves two layers: Phase 2
   omission trials and Phase 4 combination checks. *)
let phases = [ "prepare"; "t0-generation"; "phase1+2"; "phase3"; "phase4" ]

let layer_of ~phase name =
  match name with
  | "bench:circuit" -> Some "circuits.build_s"
  | "bench:collapse" -> Some "fault.collapse_s"
  | "bench:prepare" | "prepare" | "tgen:comb" | "podem:chunk" -> Some "atpg.prepare_s"
  | "fsim:matrix" | "fsim:union" -> Some "fsim.comb_s"
  | "t0-generation" | "tgen:seq" | "tgen:ga" -> Some "tgen.t0_s"
  | "fsim:detect-no-scan" -> Some "fsim3.detect_no_scan_s"
  | "phase1:scan-in" -> Some "phase1.scan_in_s"
  | "phase1:scan-out" -> Some "phase1.scan_out_s"
  | "fsim:candidates" -> Some "fsim.candidates_s"
  | "fsim:profile" -> Some "fsim.profile_s"
  | "fsim:detect" -> Some "fsim.detect_s"
  | "fsim:verify" when phase = Some "phase1+2" -> Some "omission.verify_s"
  | "fsim:verify" | "phase4" -> Some "combine.phase4_s"
  | "phase1+2" -> Some "omission.loop_s"
  | "phase3" -> Some "phase3.cover_s"
  | "bench:baseline-static" -> Some "baseline.static_s"
  | "bench:baseline-dynamic" -> Some "baseline.dynamic_s"
  | "bench:run" -> Some "pipeline.other_s"
  | _ -> None

(* Every metric [layer_of] can produce, in report order. *)
let layer_names =
  [
    "circuits.build_s"; "fault.collapse_s"; "atpg.prepare_s"; "fsim.comb_s";
    "tgen.t0_s"; "fsim3.detect_no_scan_s"; "phase1.scan_in_s";
    "phase1.scan_out_s"; "fsim.candidates_s"; "fsim.profile_s"; "fsim.detect_s";
    "omission.verify_s"; "omission.loop_s"; "phase3.cover_s"; "combine.phase4_s";
    "baseline.static_s"; "baseline.dynamic_s"; "pipeline.other_s";
  ]

type acc = {
  self : (string, float) Hashtbl.t;  (** Layer metric -> self seconds. *)
  mutable unmapped : float;  (** Self seconds of spans [layer_of] rejects. *)
  mutable roots : float;  (** Wall seconds of the root spans. *)
  mutable trials : int;  (** Omission trials ([fsim:verify] under Phase 1+2). *)
  mutable accepted : int;  (** Trials whose omission was kept. *)
}

let create () =
  { self = Hashtbl.create 32; unmapped = 0.0; roots = 0.0; trials = 0; accepted = 0 }

let self_of acc name = Option.value ~default:0.0 (Hashtbl.find_opt acc.self name)

let total acc = Hashtbl.fold (fun _ v s -> s +. v) acc.self acc.unmapped

type frame = {
  f_name : string;
  f_phase : string option;  (* nearest enclosing phase, itself included *)
  f_dur : float;
  mutable f_children : float;
}

(* Walk one track's spans in begin order with a stack of open
   ancestors ([s_depth] is the nesting depth Telemetry computed from the
   begin/end pairs, so the stack is exact even for zero-length spans). *)
let add_track acc (spans : Telemetry.span_record list) =
  let close f =
    let self = f.f_dur -. f.f_children in
    match layer_of ~phase:f.f_phase f.f_name with
    | Some layer -> Hashtbl.replace acc.self layer (self_of acc layer +. self)
    | None -> acc.unmapped <- acc.unmapped +. self
  in
  let stack = ref [] in
  let prev = ref None in
  List.iter
    (fun (s : Telemetry.span_record) ->
      while List.length !stack > s.s_depth do
        match !stack with
        | f :: rest ->
            close f;
            stack := rest
        | [] -> assert false
      done;
      let dur = s.s_end -. s.s_begin in
      let parent_phase = match !stack with f :: _ -> f.f_phase | [] -> None in
      (match !stack with
      | parent :: _ -> parent.f_children <- parent.f_children +. dur
      | [] -> acc.roots <- acc.roots +. dur);
      (* Vector_omission refreshes its detection profile right after
         every trial it accepts, so a verify span directly followed by a
         profile sibling is an accepted trial. *)
      (match !prev with
      | Some (p : Telemetry.span_record)
        when p.s_name = "fsim:verify" && s.s_name = "fsim:profile"
             && s.s_depth = p.s_depth && parent_phase = Some "phase1+2" ->
          acc.accepted <- acc.accepted + 1
      | _ -> ());
      if s.s_name = "fsim:verify" && parent_phase = Some "phase1+2" then
        acc.trials <- acc.trials + 1;
      let phase = if List.mem s.s_name phases then Some s.s_name else parent_phase in
      stack := { f_name = s.s_name; f_phase = phase; f_dur = dur; f_children = 0.0 } :: !stack;
      prev := Some s)
    spans;
  List.iter close !stack

(* [Telemetry.spans] lists each track's spans as they end (children
   before their parent), so sort them into begin order, parents first. *)
let add acc (snap : Telemetry.snapshot) =
  let spans = Telemetry.spans snap in
  List.iter
    (fun (t : Telemetry.track) ->
      List.filter (fun (s : Telemetry.span_record) -> s.s_dom = t.dom) spans
      |> List.stable_sort (fun (a : Telemetry.span_record) b ->
             compare (a.s_begin, a.s_depth) (b.s_begin, b.s_depth))
      |> add_track acc)
    snap.tracks
