#include "logsync/timestamp.h"

#include <cstdio>

namespace wheels::logsync {
namespace {

TimeZone effective_zone(const LogClock& clock) {
  switch (clock.kind) {
    case ClockKind::Local: return clock.local_tz;
    case ClockKind::FixedEdt: return TimeZone::Eastern;
    case ClockKind::Utc: return TimeZone::Eastern;  // placeholder, not used
  }
  return TimeZone::Eastern;
}

}  // namespace

std::string format_timestamp(SimTime t, const LogClock& clock) {
  CivilTime ct;
  if (clock.kind == ClockKind::Utc) {
    // UTC: offset 0; reuse to_civil via a zone with zero offset by shifting.
    const double ms = t.ms_since_epoch;
    const double day_ms = 86'400.0e3;
    const int day = static_cast<int>(ms / day_ms) + 1;
    double rem = ms - (day - 1) * day_ms;
    ct.day = day;
    ct.hour = static_cast<int>(rem / 3600.0e3);
    rem -= ct.hour * 3600.0e3;
    ct.minute = static_cast<int>(rem / 60.0e3);
    rem -= ct.minute * 60.0e3;
    ct.second = static_cast<int>(rem / 1.0e3);
    rem -= ct.second * 1.0e3;
    ct.millisecond = static_cast<int>(rem + 0.5);
  } else {
    ct = to_civil(t, effective_zone(clock));
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%s-%02d %02d:%02d:%02d.%03d",
                kCampaignMonth, kCampaignStartDayOfMonth + ct.day - 1,
                ct.hour, ct.minute, ct.second, ct.millisecond);
  return buf;
}

std::optional<SimTime> parse_timestamp(const std::string& text,
                                       const LogClock& clock) {
  int year = 0, month = 0, dom = 0, h = 0, m = 0, s = 0, ms = 0;
  const int n = std::sscanf(text.c_str(), "%d-%d-%d %d:%d:%d.%d", &year,
                            &month, &dom, &h, &m, &s, &ms);
  if (n < 6) return std::nullopt;
  if (year != 2022 || month != 8) return std::nullopt;
  const int day = dom - kCampaignStartDayOfMonth + 1;
  // day 0 is legal: a UTC instant early on day 1 is still the previous
  // local calendar day out west.
  if (day < 0 || day > 31) return std::nullopt;
  CivilTime ct{day, h, m, s, ms};
  if (clock.kind == ClockKind::Utc) {
    return SimTime{(ct.day - 1) * 86'400.0e3 + ct.hour * 3600.0e3 +
                   ct.minute * 60.0e3 + ct.second * 1.0e3 + ct.millisecond};
  }
  return from_civil(ct, effective_zone(clock));
}

}  // namespace wheels::logsync
