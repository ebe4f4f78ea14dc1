(* Aggregated test runner for the whole repository. *)

let () =
  Alcotest.run "asc"
    (List.concat
       [
         Test_util.suite;
         Test_netlist.suite;
         Test_sim.suite;
         Test_circuits.suite;
         Test_fault.suite;
         Test_atpg.suite;
         Test_scan.suite;
         Test_compact.suite;
         Test_core.suite;
         Test_tfault.suite;
         Test_extensions.suite;
         Test_report.suite;
         Test_edge.suite;
         Test_paper_shapes.suite;
         Test_collapse_rules.suite;
         Test_tools.suite;
         Test_partial_pipeline.suite;
         Test_truth_tables.suite;
         Test_podem_textbook.suite;
         Test_misc.suite;
         Test_more_edge.suite;
         Test_cross.suite;
         Test_metamorphic.suite;
         Test_small_units.suite;
         Test_final.suite;
         Test_parallel.suite;
         Test_telemetry.suite;
         Test_bench_corpus.suite;
         Test_robustness.suite;
         Test_chaos.suite;
         Test_kernel.suite;
         Test_serve.suite;
         Test_route.suite;
         Test_obs.suite;
       ])
