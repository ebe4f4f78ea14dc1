(* The benchmark of BENCHMARK.json: one workload per invocation.

     perfbench/run.sh --workload oneshot-s1423|batch-quick|serve-fleet \
       --seed N --seconds S --trace 0|1

   With --trace 0 it prints every end-to-end metric, with --trace 1 every
   per-layer metric; either way the last line of standard output is one
   JSON object {correct, attempted, failed, metrics}.  Every test set the
   run produces is checked outside the timed region (module Check); any
   mismatch makes [correct] false and the exit code 1.  perfbench/README.md
   gives each workload's rationale and the layer -> metric -> workload
   map. *)

module J = Asc_util.Json
module Telemetry = Asc_util.Telemetry
module Bitvec = Asc_util.Bitvec
module Circuit = Asc_netlist.Circuit
module Registry = Asc_circuits.Registry
module Pipeline = Asc_core.Pipeline
module Experiments = Asc_core.Experiments
module Stats = Perfbench.Stats
module Selftime = Perfbench.Selftime
module Check = Perfbench.Check
module Loadgen = Perfbench.Loadgen

let now = Unix.gettimeofday

(* --- Reporting ---------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float; note : string }

let metric ?(note = "") name unit_ value = { name; unit_; value; note }

type report = {
  metrics : metric list;
  attempted : int;
  failures : string list;  (** One line per failed or mismatched operation. *)
}

let print_report r =
  List.iter (fun m -> Printf.printf "  %-26s %14.6g %-7s %s\n" m.name m.value m.unit_ m.note) r.metrics;
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) r.failures;
  print_endline
    (J.to_string ~compact:true
       (J.Obj
          [
            ("correct", J.Bool (r.failures = []));
            ("attempted", J.Int r.attempted);
            ("failed", J.Int (List.length r.failures));
            ( "metrics",
              J.Obj
                (List.map
                   (fun m -> (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit_) ]))
                   r.metrics) );
          ]))

let self_rss_mb () = Fleet.peak_rss_mb (Unix.getpid ())

let timed f =
  let t = now () in
  let r = f () in
  (r, now () -. t)

(* --- Pipeline jobs ------------------------------------------------------- *)

(* [Registry.get] without its memo table, so every job builds its circuit
   cold, as a fresh [asc run] does. *)
let build ~seed name =
  if name = "s27" then Asc_circuits.S27.circuit ()
  else
    match Asc_circuits.Profile.find name with
    | Some p -> Asc_circuits.Generator.generate ~seed p
    | None -> invalid_arg ("unknown circuit " ^ name)

(* A traced pass drains the telemetry handle after every public call, so
   each call's counters are its own ([Comb_tgen] in [prepare] and
   [Seq_tgen] in [run] bump the same tgen counters). *)
type tracer = {
  tel : Telemetry.t;
  layers : Selftime.acc;
  counts : (string * string, int) Hashtbl.t;  (** (scope, counter) -> total. *)
}

let new_tracer () = { tel = Telemetry.create (); layers = Selftime.create (); counts = Hashtbl.create 64 }

let count tr scope name = Option.value ~default:0 (Hashtbl.find_opt tr.counts (scope, name))

let sum_counts tr name =
  Hashtbl.fold (fun (_, c) v acc -> if c = name then acc + v else acc) tr.counts 0

let call tr ~scope span f =
  match tr with
  | None -> f None
  | Some tr ->
      let tel = Some tr.tel in
      let r = Telemetry.span tel span (fun () -> f tel) in
      let snap = Telemetry.drain tr.tel in
      Selftime.add tr.layers snap;
      List.iter
        (fun (k, v) -> Hashtbl.replace tr.counts (scope, k) (count tr scope k + v))
        snap.counters;
      r

type flow = Directed | Random | Static | Dynamic

let flow_name = function
  | Directed -> "directed"
  | Random -> "random"
  | Static -> "static[4]"
  | Dynamic -> "dynamic[2,3]"

type outcome = {
  label : string;
  circuit : Circuit.t;
  faults : Asc_fault.Fault.t array;
  targets : Bitvec.t;
  claim : Check.claim;
}

(* One circuit's battery: build, prepare, then each flow, as
   [Experiments.run_circuit] runs them (same configs, same RNG streams). *)
let battery ?tr ~seed ~flows name =
  let c = call tr ~scope:"circuit" "bench:circuit" (fun _ -> build ~seed name) in
  let config_of t0_source = Experiments.config_for ~seed ~t0_source in
  let directed = config_of (Pipeline.Directed (Registry.t0_budget name)) in
  let p =
    call tr ~scope:"prepare" "bench:prepare" (fun tel -> Pipeline.prepare ?tel ~config:directed c)
  in
  let targets = p.targets in
  let detected_targets b = Bitvec.count (Bitvec.inter b targets) in
  let outcome flow claim =
    { label = Printf.sprintf "%s seed %d %s" name seed (flow_name flow); circuit = c;
      faults = p.faults; targets; claim }
  in
  let pipeline flow config =
    let r =
      call tr ~scope:("run-" ^ flow_name flow) "bench:run" (fun tel ->
          Pipeline.run ?tel ~config p)
    in
    outcome flow
      { tests = r.final_tests; cycles = r.cycles_final; detected = detected_targets r.final_detected }
  in
  List.map
    (function
      | Directed -> pipeline Directed directed
      | Random -> pipeline Random (config_of (Pipeline.Random_seq 1000))
      | Static ->
          let b =
            call tr ~scope:"baseline" "bench:baseline-static" (fun _ ->
                Asc_core.Baseline_static.run p)
          in
          (* Combining must keep the coverage of C it started from. *)
          outcome Static
            { tests = b.final_tests; cycles = b.cycles_final;
              detected = detected_targets p.comb_detected }
      | Dynamic ->
          let d =
            call tr ~scope:"baseline" "bench:baseline-dynamic" (fun _ ->
                Asc_compact.Dynamic_baseline.run c ~faults:p.faults ~targets
                  ~rng:(Asc_util.Rng.of_name ~seed (name ^ "/dynamic")))
          in
          outcome Dynamic
            { tests = d.tests; cycles = Asc_scan.Time_model.cycles_of_tests c d.tests;
              detected = detected_targets d.detected })
    flows

(* The fault-collapse layer, by a standalone call: the same work also
   runs inside [prepare], where it counts towards atpg.prepare_s. *)
let collapse tr ~seed name =
  let c = build ~seed name in
  call (Some tr) ~scope:"circuit" "bench:collapse" (fun _ -> ignore (Asc_fault.Collapse.run c))

let cold () =
  Asc_fault.Seq_fsim.clear_trace_cache ();
  Gc.compact ()

let check_outcomes outcomes =
  List.filter_map
    (fun o ->
      match Check.result o.circuit ~faults:o.faults ~targets:o.targets o.claim with
      | Ok () -> None
      | Error e -> Some (o.label ^ ": " ^ e))
    outcomes

let quality outcomes =
  let sum f = List.fold_left (fun s o -> s + f o) 0 outcomes in
  let cycles = sum (fun o -> o.claim.cycles) in
  let detected = sum (fun o -> o.claim.detected) and targets = sum (fun o -> Bitvec.count o.targets) in
  (cycles, 100.0 *. float_of_int detected /. float_of_int targets)

(* --- Per-layer catalogue ---------------------------------------------------- *)

(* Every per-layer metric, in report order.  A traced run reports all of
   them; a layer the workload does not exercise reads 0. *)
let layer_catalogue =
  List.map (fun n -> (n, "s")) Selftime.layer_names
  @ [
      ("trace.unmapped_s", "s"); ("trace.wall_s", "s"); ("trace.accounted_frac", "ratio");
      ("trace.overhead_frac", "ratio"); ("atpg.podem_decisions", "count");
      ("atpg.podem_backtracks", "count"); ("atpg.abort_ratio", "ratio");
      ("tgen.commit_ratio", "ratio"); ("omission.trials", "count");
      ("omission.accept_ratio", "ratio"); ("fsim.good_cycles", "count");
      ("fsim.faulty_cycles", "count"); ("fsim.cone_gates", "count");
      ("fsim.trace_cache_hit_ratio", "ratio"); ("serve.miss_p50_s.lo", "s");
      ("serve.miss_p50_s.hi", "s");
      ("serve.miss_p80_s", "s"); ("serve.hit_p50_s", "s"); ("serve.hit_p99_s", "s");
      ("server.queue_wait_p50_s", "s"); ("server.execute_p50_s", "s");
      ("server.e2e_p50_s", "s"); ("scheduler.rejected", "count"); ("scheduler.shed", "count");
      ("supervisor.restarts", "count"); ("router.overhead_p50_s", "s");
      ("router.failovers", "count"); ("cache.hit_ratio", "ratio");
      ("checkpoint.writes", "count"); ("checkpoint.write_failures", "count");
      ("loadgen.late_max_s", "s");
    ]

let layer_report values =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) values with
      | Some m -> { m with unit_ }
      | None -> metric name unit_ 0.0)
    layer_catalogue

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Per traced pass. *)
let pipeline_layers tr ~passes ~traced ~untraced =
  let per x = x /. float_of_int passes in
  let per_count n = per (float_of_int n) in
  let l = tr.layers in
  let prepare = count tr "prepare" in
  let directed = count tr "run-directed" in
  let all = sum_counts tr in
  let traced_wall = Asc_util.Stats.sum_f traced in
  List.map (fun n -> metric n "s" (per (Selftime.self_of l n))) Selftime.layer_names
  @ [
      metric "trace.unmapped_s" "s" (per l.unmapped);
      metric "trace.wall_s" "s" (per traced_wall)
        ~note:(Printf.sprintf "(per pass, %d passes, %d traced jobs)" passes (List.length traced));
      (* The standalone collapse calls lie outside the jobs. *)
      metric "trace.accounted_frac" "ratio"
        ((Selftime.total l -. Selftime.self_of l "fault.collapse_s") /. traced_wall);
      metric "trace.overhead_frac" "ratio"
        (traced_wall /. Asc_util.Stats.sum_f untraced -. 1.0)
        ~note:(Printf.sprintf "(%d untraced/traced job pairs)" (List.length traced));
      metric "atpg.podem_decisions" "count" (per_count (prepare "podem_decisions"));
      metric "atpg.podem_backtracks" "count" (per_count (prepare "podem_backtracks"));
      metric "atpg.abort_ratio" "ratio"
        (ratio (prepare "podem_aborts")
           (prepare "podem_aborts" + prepare "podem_tests" + prepare "podem_redundant"));
      metric "tgen.commit_ratio" "ratio" (ratio (directed "tgen_commits") (directed "tgen_candidates"));
      metric "omission.trials" "count" (per_count l.trials);
      metric "omission.accept_ratio" "ratio" (ratio l.accepted l.trials);
      metric "fsim.good_cycles" "count" (per_count (all "good_cycles"));
      metric "fsim.faulty_cycles" "count" (per_count (all "faulty_cycles"));
      metric "fsim.cone_gates" "count" (per_count (all "cone_gates_evaluated"));
      metric "fsim.trace_cache_hit_ratio" "ratio"
        (ratio (all "trace_cache_hits") (all "trace_cache_hits" + all "trace_cache_misses"));
    ]

(* --- Pipeline workloads ------------------------------------------------------ *)

(* A pipeline workload is a fixed input set of jobs, each a list of
   circuits and flows at one seed; a run cycles through it, one cold job
   after another, until [seconds] have passed and at least [min_jobs]
   jobs ran.  The exact metrics (N_cyc, coverage) cover the input set
   once; every repeat of a job must reproduce its first result bit for
   bit. *)
type job = { seed : int; circuits : (string * flow list) list }

let run_job ?tr j =
  List.concat_map (fun (name, flows) -> battery ?tr ~seed:j.seed ~flows name) j.circuits

let same_claim (a : outcome) (b : outcome) =
  a.claim.cycles = b.claim.cycles && a.claim.detected = b.claim.detected && a.claim.tests = b.claim.tests

let pipeline_workload ?(held_out = []) ~jobs ~min_jobs ~seconds ~trace () =
  (* Set-up: build every circuit of the input set and collapse its
     faults.  It is sampled five times before every job, so the samples
     span the run like the jobs do; the median is setup_s. *)
  let setup () =
    List.iter
      (fun j ->
        List.iter (fun (name, _) -> ignore (Asc_fault.Collapse.run (build ~seed:j.seed name))) j.circuits)
      jobs
  in
  let setups = ref [] in
  let first = Hashtbl.create 64 in
  let failures = ref [] and attempted = ref 0 in
  let record idx outcomes =
    attempted := !attempted + List.length outcomes;
    match Hashtbl.find_opt first idx with
    | None ->
        Hashtbl.replace first idx outcomes;
        failures := !failures @ check_outcomes outcomes
    | Some earlier ->
        List.iter2
          (fun a b ->
            if not (same_claim a b) then
              failures := !failures @ [ b.label ^ ": repeat differs from the first run" ])
          earlier outcomes
  in
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let timed_job ?tr i =
    cold ();
    let outcomes, dt = timed (fun () -> run_job ?tr jobs.(i mod n)) in
    record (i mod n) outcomes;
    dt
  in
  let start = now () in
  let walls = ref [] and traced = ref [] in
  let tr = new_tracer () in
  let i = ref 0 in
  (* Whole passes over the input set, so every run weighs its jobs alike
     and the per-layer figures are per pass. *)
  while !i < min_jobs || now () -. start < seconds || !i mod n <> 0 do
    for _ = 1 to 5 do
      setups := snd (timed setup) :: !setups
    done;
    walls := timed_job !i :: !walls;
    if trace then begin
      traced := timed_job ~tr !i :: !traced;
      let j = jobs.(!i mod n) in
      List.iter (fun (name, _) -> collapse tr ~seed:j.seed name) j.circuits
    end;
    incr i
  done;
  (* Held-out jobs run once, untimed, and are checked like the rest. *)
  List.iter
    (fun j ->
      let outcomes = run_job j in
      attempted := !attempted + List.length outcomes;
      failures := !failures @ check_outcomes outcomes)
    held_out;
  let outcomes = List.concat (List.init n (Hashtbl.find first)) in
  let cycles, coverage = quality outcomes in
  let walls = List.rev !walls in
  let metrics =
    if trace then
      layer_report (pipeline_layers tr ~passes:(!i / n) ~traced:(List.rev !traced) ~untraced:walls)
    else
      [
        metric "setup_s" "s" (Stats.median !setups)
          ~note:(Printf.sprintf "(%d samples)" (List.length !setups));
        metric "jobs_per_s" "1/s"
          (float_of_int (List.length walls) /. Asc_util.Stats.sum_f walls)
          ~note:(Printf.sprintf "(%d jobs)" (List.length walls));
        metric "job_p50_s" "s" (Stats.median walls)
          ~note:(Printf.sprintf "(%d samples)" (List.length walls));
        metric "n_cyc" "cycles" (float_of_int cycles)
          ~note:(Printf.sprintf "(%d test sets)" (List.length outcomes));
        metric "coverage_pct" "%" coverage;
        metric "ok_pct" "%"
          (100.0 *. (1.0 -. ratio (List.length !failures) !attempted))
          ~note:(Printf.sprintf "(%d test sets checked)" !attempted);
        metric "peak_rss_mb" "MB" (self_rss_mb ());
      ]
  in
  { metrics; attempted = !attempted; failures = !failures }

(* The canonical s1423 instance, exactly what [asc run s1423] computes:
   one s1423 job varies by seed from 673 to 2032 cycles and from 5.7 s to
   10.7 s, so a per-seed circuit would make this two-jobs-a-run workload
   unsteady; held-out circuits are batch-quick's job. *)
let oneshot ~seconds ~trace =
  pipeline_workload ~jobs:[ { seed = 1; circuits = [ ("s1423", [ Directed ]) ] } ]
    ~min_jobs:2 ~seconds ~trace ()

let quick_circuits = [ "s27"; "s298"; "s344"; "s382"; "b01"; "b02"; "b06" ]

(* Where the paper reports the dynamic baseline of [2,3]. *)
let dynamic_circuits = [ "s298"; "s344"; "s382" ]

(* A job is the table battery over the quick circuits at one seed.  The
   timed and scored input set is seeds 1 to 3 (seed 1 is what
   [bench --quick] runs).  A battery at a held-out seed drawn from the
   workload seed runs once, untimed, and is checked like the rest: the
   battery time and N_cyc sum of held-out seeds moved by 20% from seed to
   seed, past any usable bound. *)
let batch ~seed ~seconds ~trace =
  let job seed =
    {
      seed;
      circuits =
        List.map
          (fun name ->
            (name, [ Directed; Random; Static ] @ if List.mem name dynamic_circuits then [ Dynamic ] else []))
          quick_circuits;
    }
  in
  pipeline_workload ~jobs:[ job 1; job 2; job 3 ] ~held_out:[ job (1000 + seed) ] ~min_jobs:3
    ~seconds ~trace ()

(* --- serve-fleet ------------------------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* The in-process answer for a served spec, as [Scheduler] computes it. *)
let in_process (s : Loadgen.spec) =
  let c = Registry.get ~seed:s.seed s.circuit in
  let t0_source =
    if s.t0 = "random" then Pipeline.Random_seq 1000
    else Pipeline.Directed (Registry.t0_budget s.circuit)
  in
  let config = Experiments.config_for ~seed:s.seed ~t0_source in
  let p = Pipeline.prepare ~config c in
  let r = Pipeline.run ~config p in
  let detected = Bitvec.count (Bitvec.inter r.final_detected p.targets) in
  let check =
    Check.result c ~faults:p.faults ~targets:p.targets
      { tests = r.final_tests; cycles = r.cycles_final; detected }
  in
  ( { Check.s_tests = Array.length r.final_tests; s_cycles = r.cycles_final; s_detected = detected;
      s_targets = Bitvec.count p.targets },
    Asc_scan.Tset_io.to_string c r.final_tests,
    check )

(* [List.map f xs] in [n] forked children, each taking every n-th
   element; the results come back as marshalled files in [dir]. *)
let fork_map ~dir n f xs =
  let children =
    List.init n (fun k ->
        let file = Filename.concat dir (Printf.sprintf "check%d.bin" k) in
        match Unix.fork () with
        | 0 ->
            let code =
              try
                let out = List.map f (List.filteri (fun i _ -> i mod n = k) xs) in
                Out_channel.with_open_bin file (fun oc -> Marshal.to_channel oc out []);
                0
              with _ -> 1
            in
            Unix._exit code
        | pid -> (pid, file))
  in
  let parts =
    List.map
      (fun (pid, file) ->
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> Array.of_list (In_channel.with_open_bin file Marshal.from_channel)
        | _ -> failwith "in-process check: a child failed")
      children
  in
  List.mapi (fun i _ -> (List.nth parts (i mod n)).(i / n)) xs

let spec_label (s : Loadgen.spec) = Printf.sprintf "%s seed %d %s" s.circuit s.seed s.t0

let serve ~dir ~seed ~seconds ~trace =
  (* Per 20 s of [seconds], at least once: lo 16 probe jobs, then blocks
     of [Loadgen.kinds] jobs, hi 1 and sat 3, in orders drawn from the
     workload seed. *)
  let scale = max 1 (int_of_float (seconds /. 20.0)) in
  let blocks first n = List.init (n * scale) (fun k -> first + k) in
  let lo_specs = Loadgen.probe (16 * scale) in
  let hi_specs = Loadgen.step_specs ~seed ~name:"hi" (blocks 0 1) in
  let sat_specs = Loadgen.step_specs ~seed ~name:"sat" (blocks scale 3) in
  let specs = Array.of_list (lo_specs @ hi_specs @ sat_specs) in
  let n_hit = 3000 * scale in
  (* Set-up: five fleet starts, each until the router sees both shards;
     the last fleet serves the run. *)
  let starts = 5 in
  let fleets =
    List.init starts (fun k ->
        let f, dt = timed (fun () -> Fleet.start (Filename.concat dir (Printf.sprintf "fleet%d" k))) in
        if k < starts - 1 then Fleet.stop f;
        (f, dt))
  in
  let setup_s = Stats.median (List.map snd fleets) in
  let fleet = fst (List.nth fleets (starts - 1)) in
  let conns = ref [] in
  let replies = Hashtbl.create 1024 in
  let late_max = ref 0.0 in
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  let step name ~rate ?(want_tset = false) step_specs =
    let t0 = now () +. 0.05 in
    let dues = Loadgen.arrivals ~rate ~n:(List.length step_specs) in
    let reqs =
      Array.of_list
        (List.mapi
           (fun k (s, due) -> (s, { Loadgen.due = t0 +. due; line = Loadgen.submit_line ~id:k ~want_tset s }))
           (List.combine step_specs dues))
    in
    let last_due = (snd reqs.(Array.length reqs - 1)).due in
    let got, late = Loadgen.drive ~conns:!conns ~deadline:(last_due +. 30.0) (Array.map snd reqs) in
    Printf.eprintf "perfbench: step %s: %d requests in %.2fs\n%!" name (Array.length reqs) (now () -. t0);
    late_max := Float.max !late_max late;
    let answered =
      Array.to_list
        (Array.mapi
           (fun k (s, _) ->
             match got.(k) with
             | None ->
                 fail (Printf.sprintf "%s %s: no reply" name (spec_label s));
                 None
             | Some (r : Loadgen.reply) -> (
                 let status = Option.bind (J.member "status" r.json) J.as_str in
                 match (Option.bind (J.member "ok" r.json) J.as_bool, status, Check.summary_of_json r.json) with
                 | Some true, Some "complete", Some summary ->
                     Hashtbl.replace replies (name, k) (s, summary, r.json);
                     Some (s, r)
                 | _ ->
                     fail (Printf.sprintf "%s %s: %s" name (spec_label s) (J.to_string ~compact:true r.json));
                     None))
           reqs)
    in
    (t0, List.filter_map Fun.id answered, Array.length reqs)
  in
  let metrics_json () = if trace then Some (Fleet.metrics fleet) else None in
  let measured =
    Fun.protect
      ~finally:(fun () ->
        List.iter Unix.close !conns;
        Fleet.stop fleet)
      (fun () ->
        conns := [ Fleet.connect fleet.front; Fleet.connect fleet.front ];
        let _, lo, a_lo = step "lo" ~rate:2.0 lo_specs in
        let _, hi, a_hi = step "hi" ~rate:5.0 hi_specs in
        let t_sat, sat, a_sat = step "sat" ~rate:10.0 sat_specs in
        let after_miss = metrics_json () in
        (* Hits: every spec again and again, at a fixed 1000 requests/s;
           at 300/s the idle gaps between requests let wake-up latency
           into the figure. *)
        let all = Array.to_list specs in
        let _, hit, a_hit =
          step "hit" ~rate:1000.0 (List.init n_hit (fun k -> List.nth all (k mod List.length all)))
        in
        (* A sample of test sets, for the byte comparison: every eighth spec. *)
        let _, _, a_tset =
          step "tset" ~rate:100.0 ~want_tset:true (List.filteri (fun k _ -> k mod 8 = 0) all)
        in
        let after_hit = metrics_json () in
        let rss = Fleet.fleet_rss_mb fleet in
        (lo, hi, (t_sat, sat), hit, after_miss, after_hit, rss, a_lo + a_hi + a_sat + a_hit + a_tset))
  in
  let lo, hi, (t_sat, sat), hit, after_miss, after_hit, rss, attempted = measured in
  (* Every served answer against the in-process answer for its spec. *)
  let t_check = now () in
  let expected = Hashtbl.create 128 in
  (* The fleet is down, so the check may use both cores. *)
  let all = Array.to_list specs in
  List.iter2
    (fun s (summary, tset_text, check) ->
      (match check with Ok () -> () | Error e -> fail ("in-process " ^ e));
      Hashtbl.replace expected s (summary, tset_text))
    all
    (fork_map ~dir 2 in_process all);
  Hashtbl.iter
    (fun (name, _) (s, got, json) ->
      let summary, tset_text = Hashtbl.find expected s in
      (match Check.served ~expected:summary got with
      | Ok () -> ()
      | Error e -> fail (Printf.sprintf "%s %s: %s" name (spec_label s) e));
      match Option.bind (J.member "tset" json) J.as_str with
      | Some text when text <> tset_text ->
          fail (Printf.sprintf "%s %s: served test set differs from Tset_io.to_string" name (spec_label s))
      | None when name = "tset" -> fail (Printf.sprintf "tset %s: no test set in the reply" (spec_label s))
      | _ -> ())
    replies;
  Printf.eprintf "perfbench: checked %d specs in-process in %.2fs\n%!" (Array.length specs) (now () -. t_check);
  let lat l = List.map (fun (_, (r : Loadgen.reply)) -> r.latency) l in
  let misses = lat lo @ lat hi @ lat sat in
  let totals =
    Array.fold_left
      (fun (c, d, g) s ->
        let e, _ = Hashtbl.find expected s in
        (c + e.Check.s_cycles, d + e.s_detected, g + e.s_targets))
      (0, 0, 0) specs
  in
  let cycles, detected, targets = totals in
  (* Completion rate while saturated: the step's jobs over the time from
     its first arrival to its last answer. *)
  let sat_jps =
    float_of_int (List.length sat)
    /. (List.fold_left (fun m (_, (r : Loadgen.reply)) -> Float.max m r.done_at) t_sat sat -. t_sat)
  in
  let failures = List.rev !failures in
  let metrics =
    if trace then begin
      let hist json name p =
        match
          Option.bind json (fun j ->
              Option.bind (J.member "histograms" j) (fun h -> J.member name h))
        with
        | None -> 0.0
        | Some h -> (
            match Asc_util.Histogram.of_json h with
            | Ok h -> Option.value ~default:0.0 (Asc_util.Histogram.quantile h ~p)
            | Error _ -> 0.0)
      in
      let counter json name = match json with None -> 0 | Some j -> Fleet.counter j name in
      let e2e = hist after_miss "job_e2e_seconds" 50.0 in
      let opt = function Some v -> v | None -> 0.0 in
      layer_report
        [
          metric "serve.miss_p50_s.lo" "s" (Stats.median (lat lo));
          metric "serve.miss_p50_s.hi" "s" (Stats.median (lat hi));
          metric "serve.miss_p80_s" "s" (opt (Stats.tail ~p:80.0 misses));
          metric "serve.hit_p50_s" "s" (Stats.median (lat hit));
          metric "serve.hit_p99_s" "s" (opt (Stats.tail ~p:99.0 (lat hit)));
          metric "server.queue_wait_p50_s" "s" (hist after_miss "job_queue_wait_seconds" 50.0);
          metric "server.execute_p50_s" "s" (hist after_miss "job_execute_seconds" 50.0);
          metric "server.e2e_p50_s" "s" e2e;
          metric "scheduler.rejected" "count" (float_of_int (counter after_hit "jobs_rejected_overload"));
          metric "scheduler.shed" "count" (float_of_int (counter after_hit "jobs_shed"));
          metric "supervisor.restarts" "count" (float_of_int (counter after_hit "worker_restarts"));
          metric "router.overhead_p50_s" "s" (Stats.median misses -. e2e);
          metric "router.failovers" "count" (float_of_int (counter after_hit "router_failovers"));
          metric "cache.hit_ratio" "ratio"
            (ratio (counter after_hit "result_cache_hits")
               (counter after_hit "result_cache_hits" + counter after_hit "result_cache_misses"));
          metric "checkpoint.writes" "count" (float_of_int (counter after_hit "checkpoint_writes"));
          metric "checkpoint.write_failures" "count"
            (float_of_int (counter after_hit "checkpoint_write_failures"));
          metric "loadgen.late_max_s" "s" !late_max;
        ]
    end
    else
      [
        metric "setup_s" "s" setup_s ~note:(Printf.sprintf "(median of %d fleet starts)" starts);
        metric "jobs_per_s" "1/s" sat_jps ~note:(Printf.sprintf "(saturated, %d jobs)" (List.length sat));
        metric "job_p50_s" "s" (Stats.median (lat lo))
          ~note:(Printf.sprintf "(lo step, %d samples)" (List.length lo));
        metric "n_cyc" "cycles" (float_of_int cycles) ~note:(Printf.sprintf "(%d specs)" (Array.length specs));
        metric "coverage_pct" "%" (100.0 *. float_of_int detected /. float_of_int targets);
        metric "ok_pct" "%" (100.0 *. (1.0 -. ratio (List.length failures) attempted))
          ~note:(Printf.sprintf "(%d requests)" attempted);
        metric "peak_rss_mb" "MB" rss ~note:"(router + shards + workers)";
      ]
  in
  { metrics; attempted; failures }

(* --- Entry point ------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload oneshot-s1423|batch-quick|serve-fleet --seed N --seconds S --trace 0|1";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref None and seed = ref 1 and seconds = ref 20.0 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := (match int_of_string_opt n with Some n -> n | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := (match float_of_string_opt s with Some s when s > 0.0 -> s | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        trace := t = "1";
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = !seed and seconds = !seconds and trace = !trace in
  (* Host facts and the commit, for whoever files the numbers. *)
  print_endline
    (J.to_string ~compact:true
       (J.Obj
          [
            ("workload", match !workload with Some w -> J.Str w | None -> J.Null);
            ("seed", J.Int seed); ("seconds", J.Float seconds); ("trace", J.Bool trace);
            ("host_domains", J.Int (Domain.recommended_domain_count ()));
            ("compute_domains", J.Int 1);
            ( "commit",
              match Sys.getenv_opt "PERFBENCH_COMMIT" with Some c -> J.Str c | None -> J.Null );
          ]));
  let report =
    match !workload with
    | Some "oneshot-s1423" -> oneshot ~seconds ~trace
    | Some "batch-quick" -> batch ~seed ~seconds ~trace
    | Some "serve-fleet" ->
        let dir = Filename.concat ".perfbench_run" (string_of_int (Unix.getpid ())) in
        (try Unix.mkdir ".perfbench_run" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Fun.protect
          ~finally:(fun () ->
            rm_rf dir;
            try Sys.rmdir ".perfbench_run" with Sys_error _ -> ())
          (fun () ->
            Unix.mkdir dir 0o755;
            serve ~dir ~seed ~seconds ~trace)
    | _ -> usage ()
  in
  print_report report;
  if report.failures <> [] then exit 1
