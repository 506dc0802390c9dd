// core/parse_int: the one strict integer reader behind WHEELS_JOBS, the
// three serve env values and the tools' integer options. Each case is a
// way a value can be half-read by atoi/atoll-style parsing; parse_int
// must refuse it whole, so callers fall back to a default or exit 2.
#include "core/parse_int.h"

#include <cerrno>
#include <climits>
#include <cstdint>

#include <gtest/gtest.h>

namespace wheels {
namespace {

TEST(ParseInt, ReadsOneWholeDecimalInteger) {
  EXPECT_EQ(parse_int("0", 0, 100), 0);
  EXPECT_EQ(parse_int("42", 0, 100), 42);
  EXPECT_EQ(parse_int("-7", -10, 10), -7);
  EXPECT_EQ(parse_int("+3", 0, 10), 3);
  // Base 10 always: a leading zero is not octal.
  EXPECT_EQ(parse_int("010", 0, 100), 10);
}

TEST(ParseInt, UnsetIsNullopt) {
  // getenv() of an unset variable.
  EXPECT_EQ(parse_int(nullptr, 0, 100), std::nullopt);
}

TEST(ParseInt, RefusesTextWithoutDigits) {
  for (const char* text : {"", "abc", "-", "+", " "}) {
    EXPECT_EQ(parse_int(text, LLONG_MIN, LLONG_MAX), std::nullopt)
        << '"' << text << '"';
  }
}

TEST(ParseInt, RefusesTextAroundTheDigits) {
  // "30s" is not 30, "1e6" is not 1: a unit, an exponent, a fraction, a
  // hex prefix or trailing space makes the whole value malformed. So does
  // leading space, which strtoll would skip: " 5" is refused like "5 ".
  for (const char* text : {"30s", "1e6", "3.0", "0x10", "12 ", "7\n", " 5",
                           "\t4", " -3"}) {
    EXPECT_EQ(parse_int(text, LLONG_MIN, LLONG_MAX), std::nullopt)
        << '"' << text << '"';
  }
}

TEST(ParseInt, RangeIsInclusive) {
  EXPECT_EQ(parse_int("1", 1, 8), 1);
  EXPECT_EQ(parse_int("8", 1, 8), 8);
  EXPECT_EQ(parse_int("0", 1, 8), std::nullopt);
  EXPECT_EQ(parse_int("9", 1, 8), std::nullopt);
  EXPECT_EQ(parse_int("-1", 0, INT_MAX), std::nullopt);
  // One past the field a tool option fills: refused, not wrapped.
  EXPECT_EQ(parse_int("2147483647", 0, INT_MAX), INT_MAX);
  EXPECT_EQ(parse_int("2147483648", 0, INT_MAX), std::nullopt);
  EXPECT_EQ(parse_int("4294967295", 0, UINT32_MAX), UINT32_MAX);
  EXPECT_EQ(parse_int("4294967296", 0, UINT32_MAX), std::nullopt);
}

TEST(ParseInt, RefusesValuesPastLongLong) {
  EXPECT_EQ(parse_int("9223372036854775807", 0, LLONG_MAX), LLONG_MAX);
  EXPECT_EQ(parse_int("9223372036854775808", 0, LLONG_MAX), std::nullopt);
  EXPECT_EQ(parse_int("-9223372036854775808", LLONG_MIN, 0), LLONG_MIN);
  EXPECT_EQ(parse_int("-9223372036854775809", LLONG_MIN, 0), std::nullopt);
  EXPECT_EQ(parse_int("99999999999999999999999", LLONG_MIN, LLONG_MAX),
            std::nullopt);
}

TEST(ParseInt, AStaleErrnoDoesNotRefuseAGoodValue) {
  // Overflow is detected through errno, so a leftover ERANGE from some
  // earlier call must not be taken for this value's.
  errno = ERANGE;
  EXPECT_EQ(parse_int("5", 0, 10), 5);
}

}  // namespace
}  // namespace wheels
