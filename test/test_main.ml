let () =
  Alcotest.run "zipr"
    [
      ("util", Test_util.suite);
      ("zvm", Test_zvm.suite);
      ("zelf", Test_zelf.suite);
      ("zasm", Test_zasm.suite);
      ("pipeline", Test_pipeline.suite);
      ("parser", Test_parser.suite);
      ("printer", Test_printer.suite);
      ("irdb", Test_irdb.suite);
      ("disasm", Test_disasm.suite);
      ("superset", Test_superset.suite);
      ("analysis", Test_analysis.suite);
      ("reassemble-units", Test_reassemble_units.suite);
      ("transforms", Test_transforms.suite);
      ("jumptable-rewrite", Test_jumptable_rewrite.suite);
      ("tools", Test_tools.suite);
      ("routine", Test_routine.suite);
      ("workloads", Test_workloads.suite);
      ("zvm-semantics", Test_zvm_semantics.suite);
      ("coverage", Test_coverage.suite);
      ("cgc", Test_cgc.suite);
      ("properties", Test_props.suite);
      ("struct-properties", Test_struct_props.suite);
      ("verify-regressions", Test_verify_regress.suite);
      ("fuzz", Test_fuzz.suite);
      ("parallel", Test_parallel.suite);
      ("speculative", Test_speculative.suite);
      ("ir-cache", Test_cache.suite);
      ("serve", Test_serve.suite);
      ("obs", Test_obs.suite);
      ("placement-search", Test_placement_search.suite);
      ("cold-ir", Test_cold_ir.suite);
      ("infer", Test_infer.suite);
      ("golden", Test_golden.suite);
    ]
