#include "logsync/consolidate.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wheels::logsync {

std::uint32_t ConsolidatedDb::add_stream(
    RecordSource source, const std::vector<std::string>& timestamps,
    const LogClock& clock) {
  if (finalized_) {
    throw std::logic_error("ConsolidatedDb: already finalized");
  }
  const std::uint32_t id = next_stream_++;
  records_.reserve(records_.size() + timestamps.size());
  for (std::size_t i = 0; i < timestamps.size(); ++i) {
    const auto t = parse_timestamp(timestamps[i], clock);
    if (!t) {
      ++dropped_;
      continue;
    }
    records_.push_back({*t, source, id, i});
  }
  return id;
}

void ConsolidatedDb::finalize() {
  std::stable_sort(records_.begin(), records_.end(),
                   [](const ConsolidatedRecord& a,
                      const ConsolidatedRecord& b) {
                     return a.time.ms_since_epoch < b.time.ms_since_epoch;
                   });
  finalized_ = true;
}

std::vector<long> ConsolidatedDb::join_nearest(std::uint32_t left_stream,
                                               std::uint32_t right_stream,
                                               Millis tolerance) const {
  if (!finalized_) {
    throw std::logic_error("ConsolidatedDb: finalize() first");
  }
  // Gather both streams' records (already time-ordered).
  std::vector<const ConsolidatedRecord*> left, right;
  for (const auto& r : records_) {
    if (r.stream == left_stream) left.push_back(&r);
    if (r.stream == right_stream) right.push_back(&r);
  }
  std::vector<long> out(left.size(), -1);
  std::size_t j = 0;
  for (std::size_t i = 0; i < left.size(); ++i) {
    const double t = left[i]->time.ms_since_epoch;
    while (j + 1 < right.size() &&
           std::abs(right[j + 1]->time.ms_since_epoch - t) <=
               std::abs(right[j]->time.ms_since_epoch - t)) {
      ++j;
    }
    if (!right.empty() &&
        std::abs(right[j]->time.ms_since_epoch - t) <= tolerance.value) {
      out[i] = static_cast<long>(right[j]->payload);
    }
  }
  return out;
}

}  // namespace wheels::logsync
