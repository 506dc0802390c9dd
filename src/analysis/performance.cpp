#include "analysis/performance.h"

#include <algorithm>
#include <array>

namespace wheels::analysis {

std::vector<double> tput_samples(std::span<const trip::KpiSample> samples,
                                 const PerfFilter& f) {
  std::vector<double> out;
  for (const auto& s : samples) {
    if (s.test == trip::TestType::Ping) continue;
    if (f.test && s.test != *f.test) continue;
    if (f.tech && (!s.connected || s.tech != *f.tech)) continue;
    if (f.server && s.server != *f.server) continue;
    if (f.tz && s.tz != *f.tz) continue;
    if (s.speed.value < f.min_mph || s.speed.value > f.max_mph) continue;
    if (f.connected_only && !s.connected) continue;
    out.push_back(s.tput_mbps);
  }
  return out;
}

std::vector<double> rtt_samples(std::span<const trip::RttSample> samples,
                                const PerfFilter& f) {
  std::vector<double> out;
  for (const auto& s : samples) {
    if (!s.success) continue;
    if (f.tech && (!s.connected || s.tech != *f.tech)) continue;
    if (f.server && s.server != *f.server) continue;
    if (f.tz && s.tz != *f.tz) continue;
    if (s.speed.value < f.min_mph || s.speed.value > f.max_mph) continue;
    if (f.connected_only && !s.connected) continue;
    out.push_back(s.rtt_ms);
  }
  return out;
}

int speed_bin(Mph v) {
  if (v.value < 20.0) return 0;
  if (v.value < 60.0) return 1;
  return 2;
}

const char* speed_bin_label(int bin) {
  switch (bin) {
    case 0: return "0-20 mph";
    case 1: return "20-60 mph";
    default: return "60+ mph";
  }
}

namespace {

std::vector<SpeedBinStats> summarize(
    const std::array<std::array<std::vector<double>, 3>, 5>& buckets) {
  std::vector<SpeedBinStats> out;
  for (std::size_t t = 0; t < 5; ++t) {
    for (int b = 0; b < 3; ++b) {
      const auto& v = buckets[t][static_cast<std::size_t>(b)];
      if (v.empty()) continue;
      SpeedBinStats s;
      s.tech = static_cast<radio::Tech>(t);
      s.bin = b;
      s.count = v.size();
      double pct[3];
      percentiles(v, std::array{10.0, 50.0, 90.0}, pct);
      s.p10 = pct[0];
      s.median = pct[1];
      s.p90 = pct[2];
      s.max = *std::max_element(v.begin(), v.end());
      out.push_back(s);
    }
  }
  return out;
}

}  // namespace

std::vector<SpeedBinStats> tput_by_speed_and_tech(
    std::span<const trip::KpiSample> samples, trip::TestType test) {
  std::array<std::array<std::vector<double>, 3>, 5> buckets;
  for (const auto& s : samples) {
    if (s.test != test || !s.connected) continue;
    buckets[static_cast<std::size_t>(s.tech)]
           [static_cast<std::size_t>(speed_bin(s.speed))]
               .push_back(s.tput_mbps);
  }
  return summarize(buckets);
}

std::vector<SpeedBinStats> rtt_by_speed_and_tech(
    std::span<const trip::RttSample> samples) {
  std::array<std::array<std::vector<double>, 3>, 5> buckets;
  for (const auto& s : samples) {
    if (!s.success || !s.connected) continue;
    buckets[static_cast<std::size_t>(s.tech)]
           [static_cast<std::size_t>(speed_bin(s.speed))]
               .push_back(s.rtt_ms);
  }
  return summarize(buckets);
}

}  // namespace wheels::analysis
