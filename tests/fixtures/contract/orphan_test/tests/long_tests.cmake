# Fixture ctest include file: test_costed.cpp defines Costed.Kept; no
# source defines Costed.Renamed, so the ctest-registration rule must flag
# it at this line:
set_tests_properties(
  Costed.Kept
  Costed.Renamed
  PROPERTIES COST 25)
