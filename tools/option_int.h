// The integer options of the command-line tools in this directory.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/parse_int.h"

namespace wheels {

// The value `text` of option `opt` as an integer in [0, hi]; anything else
// is a usage error: `prog` names the value and the option on stderr and
// the process exits 2 before anything runs.
inline long long parse_int_or_exit(const char* prog, const std::string& text,
                                   const char* opt, long long hi) {
  const auto v = parse_int(text.c_str(), 0, hi);
  if (!v) {
    std::cerr << prog << ": invalid value '" << text << "' for " << opt
              << "\n";
    std::exit(2);
  }
  return *v;
}

}  // namespace wheels
