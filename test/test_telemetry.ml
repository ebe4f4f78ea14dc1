(* Tests for the telemetry layer (Asc_util.Telemetry).

   Three families: unit tests of the handle itself (counters, span
   pairing, derived metrics, the disabled no-op path), trace-export tests
   (the emitted file is valid JSON with balanced begin/end events), and
   the determinism contract: the pipeline's output on s298 and s344 is
   bit-identical with telemetry enabled vs disabled at 1, 2 and 4
   domains — telemetry only reads the clock and appends to buffers, so it
   must never influence results. *)

open Asc_util
module Tel = Telemetry

let with_pool ?tel n f =
  let pool = Domain_pool.create ?tel ~domains:n () in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) (fun () -> f pool)

(* --- Handle unit tests ----------------------------------------------- *)

let test_disabled_noop () =
  (* The [None] path must behave exactly like the uninstrumented code. *)
  Tel.add None Tel.Good_cycles 7;
  Tel.incr None Tel.Pool_tasks;
  Alcotest.(check int) "span returns" 42 (Tel.span None "x" (fun () -> 42))

let test_counters_drain () =
  let tel = Tel.create () in
  let h = Some tel in
  Tel.add h Tel.Good_cycles 5;
  Tel.add h Tel.Good_cycles 2;
  Tel.incr h Tel.Podem_tests;
  let s = Tel.drain tel in
  Alcotest.(check int) "accumulated" 7 (Tel.counter_value s "good_cycles");
  Alcotest.(check int) "incr" 1 (Tel.counter_value s "podem_tests");
  Alcotest.(check int) "untouched" 0 (Tel.counter_value s "faulty_cycles");
  Alcotest.(check int)
    "full catalogue present"
    (List.length Tel.all_counters)
    (List.length s.counters);
  (* drain resets: a second snapshot starts from zero. *)
  let s2 = Tel.drain tel in
  Alcotest.(check int) "reset" 0 (Tel.counter_value s2 "good_cycles")

let test_counters_across_domains () =
  let tel = Tel.create () in
  with_pool ~tel 4 (fun pool ->
      Domain_pool.run pool 100 (fun _ -> Tel.incr (Some tel) Tel.Good_cycles));
  let s = Tel.drain tel in
  Alcotest.(check int) "merged across domains" 100
    (Tel.counter_value s "good_cycles");
  Alcotest.(check bool) "pool tasks recorded" true
    (Tel.counter_value s "pool_tasks" > 0)

let test_spans_balanced () =
  let tel = Tel.create () in
  let h = Some tel in
  Tel.span h "outer" (fun () ->
      Tel.span h "inner" ~args:[ ("k", "v") ] (fun () -> ()));
  (* The end event is recorded even when the body raises. *)
  (try Tel.span h "raises" (fun () -> failwith "boom") with Failure _ -> ());
  let s = Tel.drain tel in
  Alcotest.(check bool) "balanced" true (Tel.balanced s);
  let spans = Tel.spans s in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let inner = List.find (fun (r : Tel.span_record) -> r.s_name = "inner") spans in
  let outer = List.find (fun (r : Tel.span_record) -> r.s_name = "outer") spans in
  Alcotest.(check int) "inner depth" 1 inner.s_depth;
  Alcotest.(check int) "outer depth" 0 outer.s_depth;
  Alcotest.(check bool) "args kept" true (List.mem ("k", "v") inner.s_args);
  Alcotest.(check bool) "nesting" true
    (outer.s_begin <= inner.s_begin && inner.s_end <= outer.s_end);
  (* Begin order: the parent is listed before the child it encloses,
     although the child ends first. *)
  Alcotest.(check (list string)) "begin order" [ "outer"; "inner"; "raises" ]
    (List.map (fun (r : Tel.span_record) -> r.s_name) spans)

let test_span_totals_shadowing () =
  (* Recursive same-named spans must not double-count wall time. *)
  let tel = Tel.create () in
  let h = Some tel in
  let rec go n = Tel.span h "rec" (fun () -> if n > 0 then go (n - 1)) in
  go 3;
  let s = Tel.drain tel in
  let t = List.find (fun (t : Tel.span_total) -> t.t_name = "rec") (Tel.span_totals s) in
  Alcotest.(check int) "only the outermost counts" 1 t.t_count;
  Alcotest.(check (float 1e-6)) "span_seconds agrees" t.t_seconds
    (Tel.span_seconds s "rec")

let test_pool_loads () =
  let tel = Tel.create () in
  with_pool ~tel 2 (fun pool ->
      Domain_pool.run pool 64 (fun i -> Sys.opaque_identity (ignore (i * i))));
  let s = Tel.drain tel in
  let loads = Tel.pool_loads s in
  Alcotest.(check bool) "some domain claimed work" true (loads <> []);
  let tasks = List.fold_left (fun a (l : Tel.load) -> a + l.l_tasks) 0 loads in
  Alcotest.(check int) "task spans = pool_tasks counter" tasks
    (Tel.counter_value s "pool_tasks");
  List.iter
    (fun (l : Tel.load) ->
      Alcotest.(check bool) "utilization in [0, 1]" true
        (l.l_util >= 0.0 && l.l_util <= 1.0))
    loads;
  Alcotest.(check bool) "imbalance >= 1" true (Tel.imbalance loads >= 1.0);
  Alcotest.(check (float 1e-9)) "imbalance of idle run" 1.0 (Tel.imbalance [])

(* --- Trace export ----------------------------------------------------- *)

(* A minimal JSON acceptor, enough to assert the trace file is
   well-formed without pulling in a parser dependency. *)
let json_ok text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      match peek () with Some (' ' | '\t' | '\n' | '\r') -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> failwith "unexpected character"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> str ()
    | Some ('t' | 'f' | 'n') -> keyword ()
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> failwith "bad value"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            members ()
        | Some '}' -> advance ()
        | _ -> failwith "bad object"
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else
      let rec elements () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            elements ()
        | Some ']' -> advance ()
        | _ -> failwith "bad array"
      in
      elements ()
  and str () =
    expect '"';
    let rec go () =
      match peek () with
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          advance ();
          go ()
      | Some _ ->
          advance ();
          go ()
      | None -> failwith "unterminated string"
    in
    go ()
  and keyword () =
    List.iter (fun _ -> advance ())
      (match peek () with
      | Some 't' -> [ 't'; 'r'; 'u'; 'e' ]
      | Some 'n' -> [ 'n'; 'u'; 'l'; 'l' ]
      | _ -> [ 'f'; 'a'; 'l'; 's'; 'e' ])
  and number () =
    while
      match peek () with
      | Some ('-' | '+' | '.' | 'e' | 'E' | '0' .. '9') -> true
      | _ -> false
    do
      advance ()
    done
  in
  match
    value ();
    skip_ws ();
    !pos = n
  with
  | complete -> complete
  | exception Failure _ -> false

let count_substring text sub =
  let n = String.length sub in
  let count = ref 0 in
  for i = 0 to String.length text - n do
    if String.sub text i n = sub then incr count
  done;
  !count

let test_trace_file () =
  let c = Asc_circuits.Registry.get "s27" in
  let tel = Tel.create () in
  let h = Some tel in
  with_pool ~tel 2 (fun pool ->
      let faults =
        Asc_fault.Collapse.reps (Asc_fault.Collapse.run c)
      in
      let rng = Rng.of_name ~seed:3 "s27/tel-trace" in
      let si = Rng.bool_array rng (Asc_netlist.Circuit.n_dffs c) in
      let seq =
        Array.init 32 (fun _ ->
            Rng.bool_array rng (Asc_netlist.Circuit.n_inputs c))
      in
      ignore (Asc_fault.Seq_fsim.detect ~pool ?tel:h c ~si ~seq ~faults));
  let s = Tel.drain tel in
  Alcotest.(check bool) "snapshot balanced" true (Tel.balanced s);
  let file = Filename.temp_file "asc-trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Asc_util.Durable.replace file
        (Asc_util.Json.to_string ~compact:true (Tel.trace_json s) ^ "\n");
      let ic = open_in file in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "trace is valid JSON" true (json_ok (String.trim text));
      let begins = count_substring text {|"ph":"B"|} in
      let ends = count_substring text {|"ph":"E"|} in
      Alcotest.(check bool) "has events" true (begins > 0);
      Alcotest.(check int) "begin/end balanced" begins ends;
      Alcotest.(check bool) "has fsim span" true
        (count_substring text {|"fsim:detect"|} > 0));
  (* The run-summary metrics document must be well-formed too. *)
  Alcotest.(check bool) "metrics is valid JSON" true
    (json_ok (Json.to_string (Tel.metrics_json s)))

(* --- Determinism: telemetry never affects results --------------------- *)

let check_result label (a : Asc_core.Pipeline.result) (b : Asc_core.Pipeline.result) =
  Alcotest.(check int) (label ^ " cycles_final") a.cycles_final b.cycles_final;
  Alcotest.(check int) (label ^ " cycles_initial") a.cycles_initial b.cycles_initial;
  Alcotest.(check bool) (label ^ " final_detected") true
    (Bitvec.equal a.final_detected b.final_detected);
  Alcotest.(check bool) (label ^ " final_tests") true
    (Array.length a.final_tests = Array.length b.final_tests
    && Array.for_all2 Asc_scan.Scan_test.equal a.final_tests b.final_tests)

let test_pipeline_unaffected () =
  List.iter
    (fun name ->
      let c = Asc_circuits.Registry.get name in
      let config =
        { Asc_core.Pipeline.default_config with
          t0_source = Asc_core.Pipeline.Directed 200 }
      in
      (* Baseline: no telemetry, no pool. *)
      let prepared_ref = Asc_core.Pipeline.prepare ~config c in
      let reference = Asc_core.Pipeline.run ~config prepared_ref in
      List.iter
        (fun domains ->
          let tel = Tel.create () in
          with_pool ~tel domains (fun pool ->
              let prepared =
                Asc_core.Pipeline.prepare ~pool ~tel ~config c
              in
              let r = Asc_core.Pipeline.run ~pool ~tel ~config prepared in
              check_result
                (Printf.sprintf "%s telemetry on (%d domains)" name domains)
                reference r);
          let s = Tel.drain tel in
          Alcotest.(check bool)
            (Printf.sprintf "%s snapshot balanced (%d domains)" name domains)
            true (Tel.balanced s);
          Alcotest.(check bool)
            (Printf.sprintf "%s recorded work (%d domains)" name domains)
            true
            (Tel.counter_value s "good_cycles" > 0
            && Tel.counter_value s "faults_simulated" > 0))
        [ 1; 2; 4 ])
    [ "s298"; "s344" ]

let test_phase_spans_present () =
  let c = Asc_circuits.Registry.get "s298" in
  let config =
    { Asc_core.Pipeline.default_config with
      t0_source = Asc_core.Pipeline.Directed 200 }
  in
  let tel = Tel.create () in
  let prepared = Asc_core.Pipeline.prepare ~tel ~config c in
  ignore (Asc_core.Pipeline.run ~tel ~config prepared);
  let s = Tel.drain tel in
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (Printf.sprintf "phase span %S present" phase)
        true
        (Tel.span_seconds s phase > 0.0))
    Tel.phase_names

let suite =
  [
    ( "telemetry",
      [
        Alcotest.test_case "disabled handle is a no-op" `Quick test_disabled_noop;
        Alcotest.test_case "counters accumulate and drain resets" `Quick
          test_counters_drain;
        Alcotest.test_case "counters merge across domains" `Quick
          test_counters_across_domains;
        Alcotest.test_case "spans pair and nest" `Quick test_spans_balanced;
        Alcotest.test_case "recursive spans count once" `Quick
          test_span_totals_shadowing;
        Alcotest.test_case "pool loads and imbalance" `Quick test_pool_loads;
        Alcotest.test_case "trace file is valid balanced JSON" `Quick
          test_trace_file;
        Alcotest.test_case "pipeline output unaffected by telemetry" `Slow
          test_pipeline_unaffected;
        Alcotest.test_case "phase spans cover the pipeline" `Quick
          test_phase_spans_present;
      ] );
  ]
