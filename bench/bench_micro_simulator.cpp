// Micro-benchmarks of the simulator's hot paths (google-benchmark).
#include <benchmark/benchmark.h>

#include "net/tcp_cubic.h"
#include "radio/kernel.h"
#include "ran/kernel.h"
#include "ran/ue.h"
#include "trip/region.h"
#include "trip/route.h"

namespace {

using namespace wheels;

// The rate half of the radio chain the UE step runs: CQI/MCS selection,
// BLER and carrier aggregation over the default plan's mid band.
void BM_PhyRateChain(benchmark::State& state) {
  const radio::DerivedPlan dp = radio::derive_plan(radio::default_band_plan());
  const radio::BandDerived& bd = dp.band(radio::Tech::NR_MID);
  double sinr = -5.0;
  for (auto _ : state) {
    sinr += 0.37;
    if (sinr > 35.0) sinr = -5.0;
    auto r = radio::cached_phy_rate(dp, bd, radio::Direction::Downlink,
                                    Db{sinr}, 2, 0.5);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PhyRateChain);

// The link-budget half: one path loss and the downlink SINR over it.
void BM_LinkBudget(benchmark::State& state) {
  const radio::DerivedPlan dp = radio::derive_plan(radio::default_band_plan());
  const radio::BandDerived& bd = dp.band(radio::Tech::LTE_A);
  radio::ChannelState ch;
  double d = 100.0;
  for (auto _ : state) {
    d = d > 3'000.0 ? 100.0 : d + 13.0;
    const double pl =
        radio::cached_pathloss_db(bd, radio::Environment::Rural, d);
    auto s = radio::sinr_downlink(bd, pl, ch, Db{8.0});
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_LinkBudget);

void BM_CubicStep(benchmark::State& state) {
  net::CubicFlow flow(Rng(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flow.step(Millis{20.0}, Mbps{50.0}, Millis{60.0}));
  }
}
BENCHMARK(BM_CubicStep);

void BM_UeStep(benchmark::State& state) {
  const auto route = trip::Route::cross_country();
  static const ran::Corridor corridor =
      trip::build_corridor(route, Rng(2));
  static const ran::Deployment dep = ran::Deployment::generate(
      corridor, ran::operator_profile(ran::OperatorId::TMobile), Rng(3));
  ran::UeSimulator ue(corridor, dep,
                      ran::operator_profile(ran::OperatorId::TMobile),
                      Rng(4), ran::TrafficProfile::BackloggedDl);
  SimTime t{0.0};
  Meters pos{0.0};
  for (auto _ : state) {
    t += Millis{20.0};
    pos += Meters{0.6};
    if (pos.value > corridor.length().value - 1'000.0) pos = Meters{0.0};
    benchmark::DoNotOptimize(ue.step(t, pos, Mph{65.0}, Millis{20.0}));
  }
}
BENCHMARK(BM_UeStep);

// The candidate-cell lookup of one point step: a one-row fill, seeded by
// a binary search per layer.
void BM_FillNearestCellsOneRow(benchmark::State& state) {
  const auto route = trip::Route::cross_country();
  static const ran::Corridor corridor =
      trip::build_corridor(route, Rng(5));
  const ran::OperatorProfile& profile =
      ran::operator_profile(ran::OperatorId::Verizon);
  static const ran::Deployment dep =
      ran::Deployment::generate(corridor, profile, Rng(6));
  ran::SegmentBatch batch;
  batch.resize(1);
  for (auto _ : state) {
    double& pos = batch.pos_m[0];
    pos = pos > corridor.length().value ? 0.0 : pos + 313.0;
    ran::fill_nearest_cells(dep, profile, batch);
    benchmark::DoNotOptimize(batch.layers[0].cell[0]);
  }
}
BENCHMARK(BM_FillNearestCellsOneRow);

}  // namespace

BENCHMARK_MAIN();
