// Timestamp formats and conversion.
//
// The study's log-synchronization headache (§B): applications logged in
// UTC or local time, XCAL .drm files carry local-time filenames but
// EDT-timestamped contents, and the car crossed four timezones. This
// module gives every log source an explicit clock description and converts
// everything to the campaign's absolute SimTime.
#pragma once

#include <optional>
#include <string>

#include "core/sim_time.h"

namespace wheels::logsync {

// How a log source stamps its records.
enum class ClockKind : std::uint8_t {
  Utc,       // app servers, some apps
  Local,     // phone local time (follows the vehicle's timezone)
  FixedEdt,  // XCAL record contents: always EDT regardless of location
};

struct LogClock {
  ClockKind kind = ClockKind::Utc;
  // The vehicle's timezone at logging time; meaningful for Local.
  TimeZone local_tz = TimeZone::Pacific;
};

// Campaign day 1 = 2022-08-08 (the study's first driving day).
inline constexpr int kCampaignStartDayOfMonth = 8;
inline constexpr const char* kCampaignMonth = "2022-08";

// "2022-08-10 14:02:05.250" in the clock's frame.
[[nodiscard]] std::string format_timestamp(SimTime t, const LogClock& clock);

// Parse a timestamp string back to absolute time. Returns nullopt on
// malformed input or an out-of-campaign date.
[[nodiscard]] std::optional<SimTime> parse_timestamp(const std::string& text,
                                                     const LogClock& clock);

}  // namespace wheels::logsync
