#include "core/json_text.h"

#include <cstdio>

namespace wheels {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xF]);
          out.push_back(kHex[static_cast<unsigned char>(c) & 0xF]);
        } else {
          out.push_back(c);
        }
    }
  }
  out += '"';
}

void append_int(std::string& out, std::int64_t v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%lld",
                              static_cast<long long>(v));
  out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace wheels
