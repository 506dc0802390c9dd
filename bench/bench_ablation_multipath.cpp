// Ablation for §8 recommendation (2): how much would multi-operator
// aggregation (MPTCP-style) help while driving?
#include "bench_common.h"

#include <memory>

#include "analysis/operator_diversity.h"
#include "core/stats.h"
#include "core/table.h"
#include "net/mptcp.h"
#include "net/mptcp_scheduler.h"
#include "ran/kernel.h"
#include "trip/trajectory.h"
#include "trip/world.h"

int main(int argc, char** argv) {
  using namespace wheels;
  auto cfg = bench::campaign_config(argc, argv);
  bench::print_header("Ablation",
                      "Multi-operator aggregation (MPTCP what-if)",
                      cfg.cycle_stride);

  const auto& res = bench::provider().load_or_run(cfg);

  for (auto test :
       {trip::TestType::DownlinkBulk, trip::TestType::UplinkBulk}) {
    // Align the three operators' concurrent samples.
    std::vector<std::vector<double>> series(3);
    const auto& v = res.for_op(ran::OperatorId::Verizon).kpi;
    const auto& t = res.for_op(ran::OperatorId::TMobile).kpi;
    const auto& a = res.for_op(ran::OperatorId::ATT).kpi;
    std::size_t n = std::min({v.size(), t.size(), a.size()});
    for (std::size_t i = 0; i < n; ++i) {
      if (v[i].test != test) continue;
      series[0].push_back(v[i].tput_mbps);
      series[1].push_back(t[i].tput_mbps);
      series[2].push_back(a[i].tput_mbps);
    }
    const auto agg = net::aggregate_series(series);

    std::vector<double> best, realistic, ideal, gains;
    int rescued = 0;
    for (const auto& r : agg) {
      best.push_back(r.best_single_mbps);
      realistic.push_back(r.realistic_mbps);
      ideal.push_back(r.ideal_sum_mbps);
      if (r.best_single_mbps > 0.1) gains.push_back(r.gain_over_best);
      // Instants where the single best operator is nearly dead but
      // another one has capacity.
      if (r.best_single_mbps < 1.0 && r.realistic_mbps > 5.0) ++rescued;
    }
    std::cout << "--- " << to_string(test) << " (n=" << agg.size()
              << " concurrent instants) ---\n";
    TextTable tab({"Series", "med", "p75", "p90"});
    tab.add_row_values("best single operator",
                       {percentile(best, 50), percentile(best, 75),
                        percentile(best, 90)},
                       1);
    tab.add_row_values("aggregated (80% secondary)",
                       {percentile(realistic, 50), percentile(realistic, 75),
                        percentile(realistic, 90)},
                       1);
    tab.add_row_values("aggregated (ideal sum)",
                       {percentile(ideal, 50), percentile(ideal, 75),
                        percentile(ideal, 90)},
                       1);
    tab.print(std::cout);
    std::cout << "median gain over the best single subscription: "
              << fmt(percentile(gains, 50), 2) << "x\n"
              << "dead-zone rescues (best<1 Mbps but aggregate>5): "
              << rescued << " instants\n\n";
  }
  bench::paper_note("the paper recommends multi-connectivity because "
                    "per-location operator diversity is large (Fig. 6); "
                    "this bench quantifies the headroom.");

  // Dynamic bonded transport: run one CUBIC subflow per operator over the
  // live links for an hour of driving, schedule with minRTT, and compare
  // against the best lone subscription (congestion control and stalls
  // included, unlike the static sum above).
  std::cout << "\n--- Dynamic MPTCP simulation (1 h of driving, 20 ms "
               "slots) ---\n";
  {
    const trip::World world(scenario::paper_default(), 42);
    const Rng& rng = world.rng();
    trip::TripSimulator trip_sim(world.route(), world.corridor(),
                                 rng.fork("trip"));
    std::vector<std::unique_ptr<ran::UeSimulator>> ues;
    for (auto op : ran::kAllOperators) {
      ues.push_back(std::make_unique<ran::UeSimulator>(
          world.ue(op, rng.fork(to_string(op)).fork("ue"),
                   ran::TrafficProfile::BackloggedDl)));
    }
    // The drive advances in up to 256-slot runs of resolved points; each
    // run is filled into one batch per operator and stepped through the
    // batched chain. The trip and the UEs draw from disjoint streams, so
    // stepping each UE over the run in turn changes no input.
    const Millis slot{20.0};
    constexpr int kSlots = 180'000;
    constexpr std::size_t kBatchRows = 256;
    std::vector<std::vector<net::SubflowInput>> inputs;
    inputs.reserve(kSlots);
    std::vector<trip::TrajectoryPoint> points;
    points.reserve(kBatchRows);
    ran::SegmentBatch batch;
    for (int i = 0; i < kSlots && !trip_sim.finished();) {
      points.clear();
      for (; i < kSlots && points.size() < kBatchRows && !trip_sim.finished();
           ++i) {
        points.push_back(
            trip::resolve(trip_sim.advance(slot), world.corridor()));
      }
      const std::size_t first = inputs.size();
      inputs.resize(first + points.size(),
                    std::vector<net::SubflowInput>(ues.size()));
      for (std::size_t u = 0; u < ues.size(); ++u) {
        const auto op = ran::kAllOperators[u];
        trip::fill_batch(points, world.deployment(op), world.profile(op),
                         batch);
        ues[u]->begin_segment(batch);
        for (std::size_t row = 0; row < points.size(); ++row) {
          const auto link = ues[u]->step(points[row].time, slot, batch, row);
          inputs[first + row][u] = {link.phy_rate_dl,
                                    link.air_latency * 2.0 + Millis{24.0}};
        }
      }
    }
    const auto bonded =
        net::run_bonded(rng.fork("mptcp"), inputs, slot, Millis{500.0});
    TextTable tb({"Series", "med", "p75", "%windows<5 Mbps", "total GB"});
    auto dead = [](const std::vector<double>& v) {
      int n = 0;
      for (double x : v) {
        if (x < 5.0) ++n;
      }
      return v.empty() ? 0.0 : 100.0 * n / static_cast<double>(v.size());
    };
    tb.add_row_values("best single subscription",
                      {percentile(bonded.best_single_mbps, 50),
                       percentile(bonded.best_single_mbps, 75),
                       dead(bonded.best_single_mbps),
                       bonded.best_single_total_gb},
                      1);
    tb.add_row_values("bonded (minRTT, real CUBIC subflows)",
                      {percentile(bonded.bonded_mbps, 50),
                       percentile(bonded.bonded_mbps, 75),
                       dead(bonded.bonded_mbps), bonded.bonded_total_gb},
                      1);
    tb.print(std::cout);
    std::cout << "bonded/best-single data volume: "
              << fmt(bonded.bonded_total_gb /
                         std::max(1e-9, bonded.best_single_total_gb),
                     2)
              << "x\n";
  }
  return 0;
}
