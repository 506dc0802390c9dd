#include "core/sim_time.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace wheels {

const char* to_string(TimeZone tz) {
  switch (tz) {
    case TimeZone::Pacific: return "Pacific";
    case TimeZone::Mountain: return "Mountain";
    case TimeZone::Central: return "Central";
    case TimeZone::Eastern: return "Eastern";
  }
  return "?";
}

int utc_offset_hours(TimeZone tz) {
  switch (tz) {
    case TimeZone::Pacific: return -7;   // PDT
    case TimeZone::Mountain: return -6;  // MDT
    case TimeZone::Central: return -5;   // CDT
    case TimeZone::Eastern: return -4;   // EDT
  }
  return 0;
}

TimeZone timezone_from_longitude(double longitude_deg) {
  // Boundaries tuned to the route: Pacific/Mountain near the NV/UT line,
  // Mountain/Central in western Nebraska, Central/Eastern at the IN/OH area.
  if (longitude_deg < -114.0) return TimeZone::Pacific;
  if (longitude_deg < -102.0) return TimeZone::Mountain;
  if (longitude_deg < -86.0) return TimeZone::Central;
  return TimeZone::Eastern;
}

CivilTime to_civil(SimTime t, TimeZone tz) {
  const double local_ms =
      t.ms_since_epoch + utc_offset_hours(tz) * 3600.0e3;
  // Civil time may be "before" the UTC epoch on day 1; clamp into day 0
  // semantics by flooring, allowing negative day handling via floor division.
  const double day_ms = 86'400.0e3;
  const double day_index = std::floor(local_ms / day_ms);
  double rem = local_ms - day_index * day_ms;
  CivilTime ct;
  ct.day = static_cast<int>(day_index) + 1;
  ct.hour = static_cast<int>(rem / 3600.0e3);
  rem -= ct.hour * 3600.0e3;
  ct.minute = static_cast<int>(rem / 60.0e3);
  rem -= ct.minute * 60.0e3;
  ct.second = static_cast<int>(rem / 1.0e3);
  rem -= ct.second * 1.0e3;
  ct.millisecond = static_cast<int>(rem + 0.5);
  if (ct.millisecond == 1000) {  // rounding carry
    ct.millisecond = 0;
    ++ct.second;
  }
  return ct;
}

SimTime from_civil(const CivilTime& ct, TimeZone tz) {
  const double local_ms = (ct.day - 1) * 86'400.0e3 + ct.hour * 3600.0e3 +
                          ct.minute * 60.0e3 + ct.second * 1.0e3 +
                          ct.millisecond;
  return SimTime{local_ms - utc_offset_hours(tz) * 3600.0e3};
}

std::string format_civil(const CivilTime& ct) {
  // Formatted straight into the result, truncated at 47 characters. (GCC's
  // -fanalyzer reads a std::string built from a char buffer as a use of
  // uninitialized memory, zeroed buffer or not.)
  std::string out(47, '\0');
  const int n = std::snprintf(out.data(), out.size() + 1,
                              "D%d %02d:%02d:%02d.%03d", ct.day, ct.hour,
                              ct.minute, ct.second, ct.millisecond);
  out.resize(static_cast<std::size_t>(
      std::clamp(n, 0, static_cast<int>(out.size()))));
  return out;
}

}  // namespace wheels
