(* Aggregated alcotest runner: every suite from every library, plus the
   paper regression, integration tests and qcheck properties. *)

let () =
  Alcotest.run "extract"
    (Test_util.suites @ Test_xml.suites @ Test_store.suites @ Test_search.suites
   @ Test_snippet.suites @ Test_paper_example.suites @ Test_extensions.suites
   @ Test_validation.suites @ Test_streaming.suites @ Test_server.suites @ Test_edge_cases.suites @ Test_datagen.suites @ Test_hotpath.suites @ Test_check.suites @ Test_obs.suites @ Test_pool.suites @ Test_http.suites @ Test_live.suites @ Test_packed.suites @ Test_shard.suites @ Test_oracle.suites @ Test_integration.suites @ Test_properties.suites)
