# ctest include file: the COST of the gtest-discovered tests that take
# ~15 s or more under `ctest -j4` on 4 vCPUs, so a build directory without
# measured costs starts them first (see tests/CMakeLists.txt). Each binary
# named here also has short cases (test_parallel_determinism: 8 of its 12
# take 0.2-9 s), so the costs go on cases, not on a whole binary's
# gtest_discover_tests call. ctest gives the properties of a name that
# matches no test to nothing, without a word; the contract analyzer's
# ctest-registration rule (tools/wheels_contract.py) fails on such a name,
# so rename a case here when its TEST is renamed.
set_tests_properties(
  ParallelDeterminism.ObservabilityTransparentAcrossJobs
  ParallelDeterminism.RepeatedParallelRunsAreIdentical
  ParallelDeterminism.CampaignRunIsSafeFromTwoThreads
  ParallelDeterminism.CampaignMatchesAcrossJobs
  RngAudit.DrawCountsMatchAcrossJobs
  PROPERTIES COST 25)
set_tests_properties(
  Smoke.StridedCampaignProducesLogs
  ScenarioDeterminism.PaperDefaultDatasetsMatchPins
  PROPERTIES COST 16)
