#include "logsync/matcher.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace wheels::logsync {

std::string xcal_filename(const std::string& op, SimTime start,
                          TimeZone local_tz) {
  const CivilTime ct = to_civil(start, local_tz);
  char buf[96];
  std::snprintf(buf, sizeof buf, "XCAL_%s_%s-%02d_%02d-%02d-%02d.drm",
                op.c_str(), kCampaignMonth,
                kCampaignStartDayOfMonth + ct.day - 1, ct.hour, ct.minute,
                ct.second);
  return buf;
}

std::optional<std::pair<SimTime, SimTime>> app_log_interval(
    const AppLogFile& log) {
  const auto a = parse_timestamp(log.first_record, log.clock);
  const auto b = parse_timestamp(log.last_record, log.clock);
  if (!a || !b || *b < *a) return std::nullopt;
  return std::make_pair(*a, *b);
}

std::optional<std::size_t> match_app_log(const AppLogFile& log,
                                         const std::vector<XcalFile>& xcal) {
  const auto interval = app_log_interval(log);
  if (!interval) return std::nullopt;
  const auto [a, b] = *interval;
  std::optional<std::size_t> best;
  double best_overlap = 0.0;
  for (std::size_t i = 0; i < xcal.size(); ++i) {
    const double lo =
        std::max(a.ms_since_epoch, xcal[i].content_start.ms_since_epoch);
    const double hi =
        std::min(b.ms_since_epoch, xcal[i].content_end.ms_since_epoch);
    const double overlap = hi - lo;
    if (overlap > best_overlap) {
      best_overlap = overlap;
      best = i;
    }
  }
  return best;
}

std::vector<long> align_timelines(const std::vector<SimTime>& left,
                                  const std::vector<SimTime>& right,
                                  Millis tolerance) {
  std::vector<long> out(left.size(), -1);
  std::size_t j = 0;
  for (std::size_t i = 0; i < left.size(); ++i) {
    const double t = left[i].ms_since_epoch;
    while (j + 1 < right.size() &&
           std::abs(right[j + 1].ms_since_epoch - t) <=
               std::abs(right[j].ms_since_epoch - t)) {
      ++j;
    }
    if (!right.empty() &&
        std::abs(right[j].ms_since_epoch - t) <= tolerance.value) {
      out[i] = static_cast<long>(j);
    }
  }
  return out;
}

}  // namespace wheels::logsync
