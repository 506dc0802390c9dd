// Fixture gtest source: defines the case long_tests.cmake costs, so the
// ctest-registration rule must accept Costed.Kept and flag only the
// name that no source defines.
TEST(Costed, Kept) {}
