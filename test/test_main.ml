let () =
  Alcotest.run "obda"
    [
      "cache", Test_cache.suite;
      "query", Test_query.suite;
      "dllite", Test_dllite.suite;
      "reform", Test_reform.suite;
      "covers", Test_cover.suite;
      "rdbms", Test_rdbms.suite;
      "batch", Test_batch.suite;
      "kernels", Test_kernels.suite;
      "sip", Test_sip.suite;
      "storage", Test_storage.suite;
      "optimizer", Test_optimizer.suite;
      "estimator", Test_estimator.suite;
      "golden", Test_golden.suite;
      "obda", Test_obda.suite;
      "feedback", Test_feedback.suite;
      "lubm", Test_lubm.suite;
      "sql", Test_sql.suite;
      "syntax", Test_syntax.suite;
      "rdf", Test_rdf.suite;
      "obs", Test_obs.suite;
      "server", Test_server.suite;
    ]
