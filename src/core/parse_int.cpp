#include "core/parse_int.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace wheels {

std::optional<long long> parse_int(const char* text, long long lo,
                                   long long hi) {
  // strtoll skips leading whitespace; the value must start at its first
  // character, as it must end at its last.
  if (text == nullptr || std::isspace(static_cast<unsigned char>(*text))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < lo || v > hi) {
    return std::nullopt;
  }
  return v;
}

}  // namespace wheels
