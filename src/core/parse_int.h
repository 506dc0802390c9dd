// Strict reading of an integer from text: environment values and
// command-line option values.
#pragma once

#include <optional>

namespace wheels {

// `text` read as one whole decimal integer in [lo, hi]; null `text` (an
// unset environment variable) gives nullopt, as do an empty string,
// whitespace before the sign or digits (" 5"), anything after the digits
// ("30s", "1e6", "12 "), a value that does not fit a long long, and a
// value outside the range. Callers fall back to their
// documented default, or refuse the option, on nullopt, so a malformed
// value is never half-read.
[[nodiscard]] std::optional<long long> parse_int(const char* text,
                                                 long long lo, long long hi);

}  // namespace wheels
