#include "analysis/longterm.h"

#include <algorithm>
#include <array>

#include "core/stats.h"

namespace wheels::analysis {

std::vector<double> test_means(std::span<const trip::TestSummary> tests,
                               trip::TestType test) {
  std::vector<double> out;
  for (const auto& t : tests) {
    if (t.test == test && t.samples > 0) out.push_back(t.mean);
  }
  return out;
}

std::vector<double> test_cv_percent(std::span<const trip::TestSummary> tests,
                                    trip::TestType test) {
  std::vector<double> out;
  for (const auto& t : tests) {
    if (t.test == test && t.samples > 1 && t.mean > 0.0) {
      out.push_back(100.0 * t.stddev / t.mean);
    }
  }
  return out;
}

std::vector<Hs5gBucket> by_hs5g_share(
    std::span<const trip::TestSummary> tests, trip::TestType test,
    std::size_t buckets) {
  std::vector<std::vector<double>> vals(buckets);
  for (const auto& t : tests) {
    if (t.test != test || t.samples == 0) continue;
    auto b = static_cast<std::size_t>(t.frac_high_speed_5g *
                                      static_cast<double>(buckets));
    b = std::min(b, buckets - 1);
    vals[b].push_back(t.mean);
  }
  std::vector<Hs5gBucket> out;
  for (std::size_t b = 0; b < buckets; ++b) {
    Hs5gBucket bk;
    bk.lo = static_cast<double>(b) / static_cast<double>(buckets);
    bk.hi = static_cast<double>(b + 1) / static_cast<double>(buckets);
    bk.count = vals[b].size();
    if (!vals[b].empty()) {
      double pct[2];
      percentiles(vals[b], std::array{50.0, 90.0}, pct);
      bk.median = pct[0];
      bk.p90 = pct[1];
    }
    out.push_back(bk);
  }
  return out;
}

std::span<const OoklaRow> ookla_q3_2022() {
  static constexpr std::array<OoklaRow, 3> rows = {{
      {"Verizon", 58.64, 8.30, 59.0},
      {"T-Mobile", 116.14, 10.91, 60.0},
      {"AT&T", 57.94, 7.55, 61.0},
  }};
  return rows;
}

}  // namespace wheels::analysis
