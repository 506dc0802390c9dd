#include <gtest/gtest.h>

#include <cmath>

#include "core/stats.h"
#include "ran/deployment.h"
#include "ran/kernel.h"

namespace wheels::ran {
namespace {

using radio::Environment;
using radio::Tech;

constexpr std::size_t idx(Tech t) { return static_cast<std::size_t>(t); }

// A long corridor with an urban core in the middle.
Corridor test_corridor() {
  return Corridor({
      {Meters{0.0}, Meters{100'000.0}, Environment::Rural,
       TimeZone::Pacific},
      {Meters{100'000.0}, Meters{140'000.0}, Environment::Urban,
       TimeZone::Pacific},
      {Meters{140'000.0}, Meters{240'000.0}, Environment::Rural,
       TimeZone::Pacific},
  });
}

TEST(Deployment, DeterministicForSameSeed) {
  const Corridor c = test_corridor();
  const auto& prof = operator_profile(OperatorId::Verizon);
  const auto a = Deployment::generate(c, prof, Rng(5));
  const auto b = Deployment::generate(c, prof, Rng(5));
  for (Tech t : radio::kAllTechs) {
    const auto ca = a.cells(t), cb = b.cells(t);
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      EXPECT_DOUBLE_EQ(ca[i].route_pos.value, cb[i].route_pos.value);
    }
  }
}

TEST(Deployment, MmwaveOnlyInUrbanCore) {
  const Corridor c = test_corridor();
  const auto dep = Deployment::generate(
      c, operator_profile(OperatorId::Verizon), Rng(6));
  for (const auto& cell : dep.cells(Tech::NR_MMWAVE)) {
    EXPECT_GE(cell.route_pos.value, 100'000.0 - 3'000.0);
    EXPECT_LE(cell.route_pos.value, 140'000.0 + 3'000.0);
  }
}

TEST(Deployment, LteBlanketsTheCorridor) {
  const Corridor c = test_corridor();
  const auto dep = Deployment::generate(
      c, operator_profile(OperatorId::ATT), Rng(7));
  // AT&T LTE availability ~1: expect cells roughly every site_spacing.
  const auto cells = dep.cells(Tech::LTE);
  const double expected =
      c.length().value /
      operator_profile(OperatorId::ATT).deployment(Tech::LTE)
          .site_spacing.value;
  EXPECT_GT(static_cast<double>(cells.size()), expected * 0.6);
}

TEST(Deployment, CellsSortedByPosition) {
  const Corridor c = test_corridor();
  const auto dep = Deployment::generate(
      c, operator_profile(OperatorId::TMobile), Rng(8));
  for (Tech t : radio::kAllTechs) {
    const auto cells = dep.cells(t);
    for (std::size_t i = 1; i < cells.size(); ++i) {
      EXPECT_LE(cells[i - 1].route_pos.value, cells[i].route_pos.value);
    }
  }
}

TEST(Deployment, NearestCellMatchesBruteForce) {
  // fill_nearest_cells over random, non-monotone positions: each backward
  // jump reseeds the sweep, each forward one advances it.
  const Corridor c = test_corridor();
  const auto& prof = operator_profile(OperatorId::TMobile);
  const auto dep = Deployment::generate(c, prof, Rng(9));
  Rng probe(10);
  SegmentBatch batch;
  batch.resize(500);
  for (double& pos : batch.pos_m) pos = probe.uniform(0.0, c.length().value);
  fill_nearest_cells(dep, prof, batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Meters pos{batch.pos_m[i]};
    for (Tech t : radio::kAllTechs) {
      const Cell* fast = batch.layers[idx(t)].cell[i];
      // Brute force.
      const Cell* slow = nullptr;
      double best = 1e18;
      for (const auto& cell : dep.cells(t)) {
        const double d = Deployment::distance_to(cell, pos).value;
        if (d < best) {
          best = d;
          slow = &cell;
        }
      }
      if (slow && best <= Deployment::service_range(t, prof).value) {
        ASSERT_NE(fast, nullptr);
        EXPECT_EQ(fast->id, slow->id);
        EXPECT_EQ(batch.layers[idx(t)].dist_m[i], best);
      } else {
        EXPECT_EQ(fast, nullptr);
      }
    }
  }
}

TEST(Deployment, DistanceIncludesLateralOffset) {
  Cell cell;
  cell.route_pos = Meters{1'000.0};
  cell.lateral = Meters{300.0};
  EXPECT_NEAR(Deployment::distance_to(cell, Meters{1'000.0}).value, 300.0,
              1e-9);
  EXPECT_NEAR(Deployment::distance_to(cell, Meters{1'400.0}).value,
              500.0, 1e-9);  // 3-4-5 triangle
}

TEST(Deployment, BackhaulReflectsEnvironment) {
  const Corridor c = test_corridor();
  const auto dep = Deployment::generate(
      c, operator_profile(OperatorId::Verizon), Rng(11));
  wheels::RunningStats urban, rural;
  for (const auto& cell : dep.cells(Tech::LTE)) {
    const bool is_urban = cell.route_pos.value >= 100'000.0 &&
                          cell.route_pos.value < 140'000.0;
    (is_urban ? urban : rural).add(std::log(cell.backhaul_dl_mbps));
  }
  ASSERT_GT(urban.count(), 5u);
  ASSERT_GT(rural.count(), 5u);
  // Urban sites are fibered: much higher median backhaul.
  EXPECT_GT(urban.mean(), rural.mean() + 1.0);
}

TEST(Deployment, UniqueCellIds) {
  const Corridor c = test_corridor();
  const auto dep = Deployment::generate(
      c, operator_profile(OperatorId::TMobile), Rng(12));
  std::vector<CellId> ids;
  for (Tech t : radio::kAllTechs) {
    for (const auto& cell : dep.cells(t)) ids.push_back(cell.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(Deployment, CoverageIsFragmented) {
  // With rural availability < 1 there must be stretches with no mid-band
  // service at all (coverage holes), not a uniform sprinkle.
  const Corridor c = test_corridor();
  const auto& prof = operator_profile(OperatorId::TMobile);
  const auto dep = Deployment::generate(c, prof, Rng(13));
  SegmentBatch batch;
  for (double pos = 0.0; pos < 100'000.0; pos += 1'000.0) {
    batch.pos_m.push_back(pos);
  }
  batch.resize(batch.pos_m.size());
  fill_nearest_cells(dep, prof, batch);
  int holes = 0, covered = 0;
  for (const Cell* cell : batch.layers[idx(Tech::NR_MID)].cell) {
    if (cell) {
      ++covered;
    } else {
      ++holes;
    }
  }
  EXPECT_GT(holes, 5);
  EXPECT_GT(covered, 5);
}

}  // namespace
}  // namespace wheels::ran
