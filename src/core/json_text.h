// JSON text output shared by every writer of JSON in the repo: the
// scenario serializer, the metrics and trace exporters, the RNG audit and
// the load generator's report. Names reach these writers from scenario
// documents, which may hold any character, so every string goes through
// one escaper.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace wheels {

// Appends `s` as a JSON string literal: quoted, with `"` and `\`
// escaped, \b \f \n \r \t by name and every other control character as
// \u00XX. Other bytes pass through unchanged.
void append_json_string(std::string& out, std::string_view s);

// Appends `v` in decimal.
void append_int(std::string& out, std::int64_t v);

}  // namespace wheels
