// Simulated wall-clock time and US timezone handling.
//
// The measurement campaign in the paper crosses four US timezones, and log
// synchronization (its challenge [C2]) hinges on reconciling UTC, local, and
// EDT timestamps. SimClock models absolute campaign time as milliseconds
// since the campaign epoch (2022-08-08 00:00 UTC in the original study);
// TimeZone converts to the local clock at the vehicle's longitude.
#pragma once

#include <cstdint>

#include "core/units.h"

namespace wheels {

// The four continental US timezones crossed on the LA -> Boston route.
enum class TimeZone : std::uint8_t { Pacific, Mountain, Central, Eastern };

[[nodiscard]] const char* to_string(TimeZone tz);

// UTC offset during daylight saving time (the trip was in August):
// PDT = UTC-7, MDT = UTC-6, CDT = UTC-5, EDT = UTC-4.
[[nodiscard]] int utc_offset_hours(TimeZone tz);

// Approximate timezone from longitude, tuned to the I-80/I-90 corridor the
// route follows (not the true jagged legal boundaries; the analysis needs
// only four coarse buckets).
[[nodiscard]] TimeZone timezone_from_longitude(double longitude_deg);

// Absolute simulated time: milliseconds since the campaign epoch, which is
// taken to be midnight UTC of day 1.
struct SimTime {
  double ms_since_epoch = 0.0;

  friend constexpr auto operator<=>(const SimTime&, const SimTime&) = default;
  friend constexpr SimTime operator+(SimTime t, Millis d) {
    return SimTime{t.ms_since_epoch + d.value};
  }
  friend constexpr SimTime operator-(SimTime t, Millis d) {
    return SimTime{t.ms_since_epoch - d.value};
  }
  friend constexpr Millis operator-(SimTime a, SimTime b) {
    return Millis{a.ms_since_epoch - b.ms_since_epoch};
  }
  SimTime& operator+=(Millis d) {
    ms_since_epoch += d.value;
    return *this;
  }
};

// Broken-down civil time within the 8-day campaign; good enough for log
// file naming and timezone reconciliation (no month rollover needed).
struct CivilTime {
  int day = 1;  // campaign day, 1-based
  int hour = 0;
  int minute = 0;
  int second = 0;
  int millisecond = 0;

  friend auto operator<=>(const CivilTime&, const CivilTime&) = default;
};

// Convert an absolute SimTime to civil time in the given zone.
[[nodiscard]] CivilTime to_civil(SimTime t, TimeZone tz);

// Convert civil time in a zone back to absolute SimTime.
[[nodiscard]] SimTime from_civil(const CivilTime& ct, TimeZone tz);

}  // namespace wheels
