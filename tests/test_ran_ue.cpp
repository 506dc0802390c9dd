#include <gtest/gtest.h>

#include <cmath>

#include "core/stats.h"
#include "ran/ue.h"

namespace wheels::ran {
namespace {

using radio::Environment;
using radio::Tech;

Corridor uniform_corridor(Environment env, double length_m = 300'000.0) {
  return Corridor({{Meters{0.0}, Meters{length_m}, env, TimeZone::Central}});
}

// Drive a UE along the corridor at constant speed; returns samples.
std::vector<LinkSample> drive(UeSimulator& ue, double speed_mph,
                              double seconds, Millis dt = Millis{100.0}) {
  std::vector<LinkSample> out;
  SimTime t{0.0};
  Meters pos{0.0};
  const double mps = Mph{speed_mph}.meters_per_second();
  const int steps = static_cast<int>(seconds * 1'000.0 / dt.value);
  for (int i = 0; i < steps; ++i) {
    out.push_back(ue.step(t, pos, Mph{speed_mph}, dt));
    t += dt;
    pos += Meters{mps * dt.seconds()};
  }
  return out;
}

// The point step is a one-row batch. Over the same monotone walk (speed
// changing per segment, one stop, a traffic switch per segment), a UE
// stepped point by point and a same-seeded UE stepped through prefetched
// segments must produce identical samples, handovers and seen cells.
TEST(Ue, PointStepsMatchPrefetchedSegments) {
  const Corridor c({
      {Meters{0.0}, Meters{30'000.0}, Environment::Rural, TimeZone::Pacific},
      {Meters{30'000.0}, Meters{60'000.0}, Environment::Urban,
       TimeZone::Pacific},
      {Meters{60'000.0}, Meters{300'000.0}, Environment::Suburban,
       TimeZone::Mountain},
  });
  const auto& prof = operator_profile(OperatorId::TMobile);
  const auto dep = Deployment::generate(c, prof, Rng(31));
  const TrafficProfile traffic[] = {
      TrafficProfile::BackloggedDl, TrafficProfile::BackloggedUl,
      TrafficProfile::Interactive, TrafficProfile::Idle};
  for (const double dt_ms : {20.0, 100.0, 700.0}) {
    const Millis dt{dt_ms};
    UeSimulator point(c, dep, prof, Rng(32));
    UeSimulator batched(c, dep, prof, Rng(32));
    Rng walk(33);
    SegmentBatch batch;
    SimTime t{0.0};
    double pos = 0.0;
    // Eight segments of 5 simulated minutes each.
    const auto rows = static_cast<std::size_t>(300'000.0 / dt_ms);
    for (int seg = 0; seg < 8; ++seg) {
      const double speed = seg == 3 ? 0.0 : walk.uniform(10.0, 75.0);
      batch.resize(rows);
      for (std::size_t i = 0; i < rows; ++i) {
        pos += Mph{speed}.meters_per_second() * dt.seconds();
        const CorridorSegment& here = c.at(Meters{pos});
        batch.pos_m[i] = pos;
        batch.speed_mph[i] = speed;
        batch.env[i] = here.env;
        batch.tz[i] = here.tz;
      }
      fill_nearest_cells(dep, prof, batch);
      point.set_traffic(traffic[seg % 4]);
      batched.set_traffic(traffic[seg % 4]);
      batched.begin_segment(batch);
      for (std::size_t i = 0; i < rows; ++i) {
        const LinkSample a = point.step(t, Meters{batch.pos_m[i]},
                                        Mph{batch.speed_mph[i]}, dt);
        const LinkSample b = batched.step(t, dt, batch, i);
        ASSERT_TRUE(a == b) << "dt " << dt_ms << " segment " << seg
                            << " row " << i;
        t += dt;
      }
    }
    EXPECT_FALSE(point.handovers().empty()) << "dt " << dt_ms;
    EXPECT_EQ(point.handovers(), batched.handovers()) << "dt " << dt_ms;
    EXPECT_EQ(point.seen_cells(), batched.seen_cells()) << "dt " << dt_ms;
  }
}

TEST(Ue, AttachesAndProducesSaneSamples) {
  const Corridor c = uniform_corridor(Environment::Suburban);
  const auto& prof = operator_profile(OperatorId::Verizon);
  const auto dep = Deployment::generate(c, prof, Rng(1));
  UeSimulator ue(c, dep, prof, Rng(2), TrafficProfile::BackloggedDl);
  const auto samples = drive(ue, 40.0, 120.0);

  int connected = 0;
  for (const auto& s : samples) {
    if (!s.connected) continue;
    ++connected;
    EXPECT_GE(s.phy_rate_dl.value, 0.0);
    EXPECT_GE(s.phy_rate_ul.value, 0.0);
    EXPECT_GT(s.rsrp.value, -150.0);
    EXPECT_LT(s.rsrp.value, -30.0);
    EXPECT_GE(s.mcs_dl, 0);
    EXPECT_LE(s.mcs_dl, 28);
    EXPECT_GE(s.bler_dl, 0.0);
    EXPECT_LE(s.bler_dl, 1.0);
    EXPECT_GE(s.num_cc_dl, 1);
    EXPECT_GT(s.air_latency.value, 0.0);
    EXPECT_GE(s.cell_load, 0.0);
    EXPECT_LE(s.cell_load, 1.0);
  }
  // Suburban LTE blanket: connected nearly always.
  EXPECT_GT(connected,
            static_cast<int>(static_cast<double>(samples.size()) * 0.8));
}

TEST(Ue, HandoversOccurWhileDriving) {
  const Corridor c = uniform_corridor(Environment::Suburban);
  const auto& prof = operator_profile(OperatorId::TMobile);
  const auto dep = Deployment::generate(c, prof, Rng(3));
  UeSimulator ue(c, dep, prof, Rng(4), TrafficProfile::BackloggedDl);
  drive(ue, 60.0, 600.0);  // 10 minutes at 60 mph = 10 miles
  EXPECT_GT(ue.handovers().size(), 3u);
  EXPECT_LT(ue.handovers().size(), 200u);
  EXPECT_GT(ue.unique_cell_count(), 3u);
}

TEST(Ue, NoHandoversWhenParked) {
  const Corridor c = uniform_corridor(Environment::Suburban);
  const auto& prof = operator_profile(OperatorId::Verizon);
  const auto dep = Deployment::generate(c, prof, Rng(5));
  UeSimulator ue(c, dep, prof, Rng(6), TrafficProfile::BackloggedDl);
  SimTime t{0.0};
  for (int i = 0; i < 3'000; ++i) {
    ue.step(t, Meters{50'000.0}, Mph{0.0}, Millis{100.0});
    t += Millis{100.0};
  }
  // A parked UE may renegotiate tech occasionally but must not ping-pong.
  EXPECT_LT(ue.handovers().size(), 12u);
}

TEST(Ue, HandoverDurationsNearProfileMedian) {
  const Corridor c = uniform_corridor(Environment::Suburban);
  const auto& prof = operator_profile(OperatorId::TMobile);
  const auto dep = Deployment::generate(c, prof, Rng(7));
  UeSimulator ue(c, dep, prof, Rng(8), TrafficProfile::BackloggedDl);
  drive(ue, 65.0, 3'600.0);
  const auto& hos = ue.handovers();
  ASSERT_GT(hos.size(), 20u);
  std::vector<double> durations;
  for (const auto& h : hos) durations.push_back(h.duration.value);
  std::sort(durations.begin(), durations.end());
  const double med = durations[durations.size() / 2];
  EXPECT_NEAR(med, prof.handover.median_dl.value,
              prof.handover.median_dl.value * 0.5);
}

TEST(Ue, AttNeverShows5gWhenIdle) {
  // Fig. 1d: the passive logger saw zero AT&T 5G along the whole route.
  const Corridor c = uniform_corridor(Environment::Urban);
  const auto& prof = operator_profile(OperatorId::ATT);
  const auto dep = Deployment::generate(c, prof, Rng(9));
  UeSimulator ue(c, dep, prof, Rng(10), TrafficProfile::Idle);
  for (const auto& s : drive(ue, 20.0, 900.0)) {
    if (s.connected) {
      EXPECT_FALSE(radio::is_5g(s.tech));
    }
  }
}

TEST(Ue, BackloggedDownlinkPromotesMoreThanIdle) {
  const Corridor c = uniform_corridor(Environment::Urban);
  const auto& prof = operator_profile(OperatorId::TMobile);
  const auto dep = Deployment::generate(c, prof, Rng(11));

  auto hs_fraction = [&](TrafficProfile tp, std::uint64_t seed) {
    UeSimulator ue(c, dep, prof, Rng(seed), tp);
    int hs = 0, total = 0;
    for (const auto& s : drive(ue, 25.0, 1'200.0)) {
      if (!s.connected) continue;
      ++total;
      if (radio::is_high_speed(s.tech)) ++hs;
    }
    return total ? static_cast<double>(hs) / total : 0.0;
  };
  const double dl = hs_fraction(TrafficProfile::BackloggedDl, 12);
  const double idle = hs_fraction(TrafficProfile::Idle, 12);
  EXPECT_GT(dl, idle + 0.2);
}

TEST(Ue, UplinkPromotesLessThanDownlink) {
  const Corridor c = uniform_corridor(Environment::Urban);
  const auto& prof = operator_profile(OperatorId::Verizon);
  const auto dep = Deployment::generate(c, prof, Rng(13));

  auto hs_fraction = [&](TrafficProfile tp) {
    UeSimulator ue(c, dep, prof, Rng(14), tp);
    int hs = 0, total = 0;
    for (const auto& s : drive(ue, 25.0, 1'800.0)) {
      if (!s.connected) continue;
      ++total;
      if (radio::is_high_speed(s.tech)) ++hs;
    }
    return total ? static_cast<double>(hs) / total : 0.0;
  };
  EXPECT_GT(hs_fraction(TrafficProfile::BackloggedDl),
            hs_fraction(TrafficProfile::BackloggedUl) + 0.1);
}

TEST(Ue, RatesZeroDuringHandover) {
  const Corridor c = uniform_corridor(Environment::Suburban);
  const auto& prof = operator_profile(OperatorId::Verizon);
  const auto dep = Deployment::generate(c, prof, Rng(15));
  UeSimulator ue(c, dep, prof, Rng(16), TrafficProfile::BackloggedDl);
  int in_ho = 0;
  for (const auto& s : drive(ue, 70.0, 1'200.0, Millis{20.0})) {
    if (s.in_handover) {
      ++in_ho;
      EXPECT_DOUBLE_EQ(s.phy_rate_dl.value, 0.0);
      EXPECT_DOUBLE_EQ(s.phy_rate_ul.value, 0.0);
    }
  }
  EXPECT_GT(in_ho, 0);
}

TEST(Ue, DisconnectedInEmptyDeployment) {
  // A corridor where nothing is deployed: rural with all-zero availability
  // is impossible via profiles, so build a deployment on a tiny corridor
  // then query far outside it.
  const Corridor big = uniform_corridor(Environment::Rural, 1'000'000.0);
  Corridor tiny({{Meters{0.0}, Meters{1'000.0}, Environment::Rural,
                  TimeZone::Central}});
  const auto& prof = operator_profile(OperatorId::Verizon);
  const auto dep = Deployment::generate(tiny, prof, Rng(17));
  UeSimulator ue(big, dep, prof, Rng(18), TrafficProfile::BackloggedDl);
  const auto s =
      ue.step(SimTime{0.0}, Meters{500'000.0}, Mph{60.0}, Millis{100.0});
  EXPECT_FALSE(s.connected);
  EXPECT_DOUBLE_EQ(s.phy_rate_dl.value, 0.0);
}

TEST(Ue, MmwaveRsrpCarriesBeamPenalty) {
  // Verizon's wide beams: mmWave RSRP several dB below AT&T's at the same
  // geometry (§5.5). Compare average serving mmWave RSRP.
  const Corridor c = uniform_corridor(Environment::Urban);
  auto mmwave_rsrp = [&](OperatorId op) {
    const auto& prof = operator_profile(op);
    const auto dep = Deployment::generate(c, prof, Rng(19));
    UeSimulator ue(c, dep, prof, Rng(20), TrafficProfile::BackloggedDl);
    wheels::RunningStats rs;
    for (const auto& s : drive(ue, 25.0, 4'000.0)) {
      if (s.connected && s.tech == Tech::NR_MMWAVE) rs.add(s.rsrp.value);
    }
    return rs;
  };
  const auto v = mmwave_rsrp(OperatorId::Verizon);
  const auto a = mmwave_rsrp(OperatorId::ATT);
  ASSERT_GT(v.count(), 50u);
  ASSERT_GT(a.count(), 50u);
  EXPECT_LT(v.mean(), a.mean() - 6.0);
}

TEST(Ue, SetTrafficForcesReEvaluation) {
  const Corridor c = uniform_corridor(Environment::Urban);
  const auto& prof = operator_profile(OperatorId::TMobile);
  const auto dep = Deployment::generate(c, prof, Rng(21));
  UeSimulator ue(c, dep, prof, Rng(22), TrafficProfile::Idle);
  SimTime t{0.0};
  ue.step(t, Meters{1'000.0}, Mph{0.0}, Millis{100.0});
  ue.set_traffic(TrafficProfile::BackloggedDl);
  // Within a couple of steps the policy must have been re-run (the tech
  // may or may not change, but traffic() reflects the new context).
  EXPECT_EQ(ue.traffic(), TrafficProfile::BackloggedDl);
  const auto s = ue.step(t + Millis{100.0}, Meters{1'001.0}, Mph{0.0},
                         Millis{100.0});
  EXPECT_TRUE(s.connected);
}

TEST(Ue, ClearHistoryDropsHandoversKeepsCells) {
  const Corridor c = uniform_corridor(Environment::Suburban);
  const auto& prof = operator_profile(OperatorId::TMobile);
  const auto dep = Deployment::generate(c, prof, Rng(23));
  UeSimulator ue(c, dep, prof, Rng(24), TrafficProfile::BackloggedDl);
  drive(ue, 60.0, 600.0);
  const auto cells = ue.unique_cell_count();
  ASSERT_GT(ue.handovers().size(), 0u);
  ue.clear_history();
  EXPECT_TRUE(ue.handovers().empty());
  EXPECT_EQ(ue.unique_cell_count(), cells);
}

TEST(Ue, LatencyGrowsWithSpeedForSensitiveOperators) {
  const Corridor c = uniform_corridor(Environment::Rural);
  const auto& prof = operator_profile(OperatorId::TMobile);
  const auto dep = Deployment::generate(c, prof, Rng(25));
  auto mean_latency = [&](double mph) {
    UeSimulator ue(c, dep, prof, Rng(26), TrafficProfile::Idle);
    wheels::RunningStats rs;
    for (const auto& s : drive(ue, mph, 600.0)) {
      if (s.connected) rs.add(s.air_latency.value);
    }
    return rs.mean();
  };
  EXPECT_GT(mean_latency(70.0), mean_latency(5.0) + 3.0);
}

}  // namespace
}  // namespace wheels::ran
