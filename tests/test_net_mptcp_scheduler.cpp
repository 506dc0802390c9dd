#include <gtest/gtest.h>

#include "core/stats.h"
#include "net/mptcp_scheduler.h"

namespace wheels::net {
namespace {

std::vector<std::vector<SubflowInput>> constant_inputs(
    std::vector<double> rates_mbps, double rtt_ms, std::size_t slots) {
  std::vector<SubflowInput> one;
  one.reserve(rates_mbps.size());
  for (double r : rates_mbps) {
    one.push_back({Mbps{r}, Millis{rtt_ms}});
  }
  return std::vector<std::vector<SubflowInput>>(slots, one);
}

TEST(MptcpScheduler, RejectsZeroSubflows) {
  EXPECT_THROW(MptcpConnection(Rng(1), 0), std::invalid_argument);
}

TEST(MptcpScheduler, RejectsLinkCountMismatch) {
  MptcpConnection c(Rng(2), 2);
  std::vector<SubflowInput> one = {{Mbps{10.0}, Millis{50.0}}};
  EXPECT_THROW(c.step(Millis{10.0}, one), std::invalid_argument);
}

TEST(MptcpScheduler, BondedApproachesSumOfPaths) {
  const auto inputs = constant_inputs({30.0, 20.0, 10.0}, 50.0, 3'000);
  const auto r = run_bonded(Rng(3), inputs, Millis{10.0}, Millis{500.0});
  ASSERT_FALSE(r.bonded_mbps.empty());
  // Steady state (skip the ramp): near 60 Mbps combined, above the best
  // single path's 30.
  const double steady = percentile(
      std::vector<double>(r.bonded_mbps.begin() + r.bonded_mbps.size() / 2,
                          r.bonded_mbps.end()),
      50.0);
  EXPECT_GT(steady, 42.0);
  EXPECT_LE(steady, 60.5);
  EXPECT_GT(r.bonded_total_gb, r.best_single_total_gb * 1.3);
}

TEST(MptcpScheduler, RedundantModeDeliversBestPathOnly) {
  MptcpConnection c(Rng(4), 2, MptcpScheduler::Redundant);
  std::vector<SubflowInput> links = {{Mbps{40.0}, Millis{40.0}},
                                     {Mbps{10.0}, Millis{40.0}}};
  double delivered = 0.0, wasted = 0.0;
  for (int i = 0; i < 3'000; ++i) {
    const auto r = c.step(Millis{10.0}, links);
    delivered += r.delivered_bytes;
    wasted += r.wasted_bytes;
  }
  const double goodput = delivered * 8.0 / 30.0 / 1e6;
  EXPECT_LE(goodput, 40.5);   // never more than the best path
  EXPECT_GT(goodput, 25.0);
  EXPECT_GT(wasted, 0.0);     // duplicates cost something
}

TEST(MptcpScheduler, SurvivesComplementaryOutages) {
  // Path A on for 2 s, then path B: a lone flow stalls during its path's
  // outage; the bonded connection keeps moving.
  std::vector<std::vector<SubflowInput>> inputs;
  for (int slot = 0; slot < 6'000; ++slot) {
    const bool a_on = (slot / 200) % 2 == 0;
    inputs.push_back({{Mbps{a_on ? 20.0 : 0.0}, Millis{50.0}},
                      {Mbps{a_on ? 0.0 : 20.0}, Millis{50.0}}});
  }
  const auto r = run_bonded(Rng(5), inputs, Millis{10.0}, Millis{500.0});
  int bonded_dead = 0, single_dead = 0;
  for (std::size_t i = 4; i < r.bonded_mbps.size(); ++i) {
    if (r.bonded_mbps[i] < 1.0) ++bonded_dead;
    if (r.best_single_mbps[i] < 1.0) ++single_dead;
  }
  EXPECT_LT(bonded_dead, single_dead);
  EXPECT_GT(r.bonded_total_gb, r.best_single_total_gb);
}

TEST(MptcpScheduler, EmptyRunIsEmpty) {
  const auto r = run_bonded(Rng(7), {}, Millis{10.0}, Millis{500.0});
  EXPECT_TRUE(r.bonded_mbps.empty());
  EXPECT_DOUBLE_EQ(r.bonded_total_gb, 0.0);
}

}  // namespace
}  // namespace wheels::net
