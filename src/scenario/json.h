// Minimal JSON reader for scenario files.
//
// Self-contained recursive-descent parser (no third-party dependency, per
// the repo's no-new-deps rule). Objects preserve key order as a
// vector<pair>, which keeps iteration deterministic: the scenario reader
// reports an object's first unknown key in file order. Numbers parse via
// std::from_chars so the result is locale-independent and round-trips the
// shortest representation printed by to_json().
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wheels::scenario {

// One parsed JSON value. A plain tagged struct rather than std::variant:
// the scenario reader checks `kind` itself, so each type error names the
// full path of the offending key.
struct JsonValue {
  enum class Kind : int { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  // Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

// Parse a complete JSON document. Throws std::invalid_argument with the
// byte offset of the first error (trailing non-whitespace content and
// duplicate object keys are errors).
[[nodiscard]] JsonValue parse_json(std::string_view text);

// Serialize a string with JSON escaping: append_json_string of
// core/json_text.h, returned (used by scenario::to_json).
[[nodiscard]] std::string json_quote(std::string_view s);

}  // namespace wheels::scenario
