// trip/world and trip/baseline: the one UE factory every runner builds
// its UEs with, and the one per-city fan-out both static baselines run on.
// World::ue must build the UE a runner would build by hand from the
// World's parts (the scenario's band plan and load regime included), and
// run_baseline_cities must hand each city's test body the best site, its
// clock, server and stream and a UE parked there in favourable
// conditions, with the outputs in route order whatever the jobs value.
#include "trip/world.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/sim_time.h"
#include "net/server.h"
#include "radio/band.h"
#include "ran/operator_profile.h"
#include "ran/ue.h"
#include "scenario/spec.h"
#include "trip/baseline.h"
#include "trip/route.h"

namespace wheels::trip {
namespace {

// Point steps every 100 ms from `start` at `pos0`, moving at `speed`.
std::vector<ran::LinkSample> drive(ran::UeSimulator& ue, SimTime start,
                                   Meters pos0, Mph speed, int steps) {
  const Millis dt{100.0};
  std::vector<ran::LinkSample> out;
  SimTime t = start;
  Meters pos = pos0;
  for (int i = 0; i < steps; ++i) {
    out.push_back(ue.step(t, pos, speed, dt));
    t += dt;
    pos += Meters{speed.meters_per_second() * dt.seconds()};
  }
  return out;
}

// Five minutes at 60 mph from the start of the route, day 1 at noon.
std::vector<ran::LinkSample> drive_from_start(ran::UeSimulator& ue,
                                              const World& world) {
  CivilTime noon;
  noon.day = 1;
  noon.hour = 12;
  const TimeZone tz = world.corridor().at(Meters{0.0}).tz;
  return drive(ue, from_civil(noon, tz), Meters{0.0}, Mph{60.0}, 3000);
}

TEST(World, UeStepsLikeADirectlyBuiltUe) {
  // Every shipped scenario (band plans and load regimes differ), every
  // roster slot: the factory's UE and one built from the World's parts on
  // the same stream produce the same samples and handovers.
  for (const scenario::ScenarioSpec& spec : scenario::builtin_scenarios()) {
    const World world(spec, 42);
    const Rng& root = world.rng();
    const Rng stream = root.fork("world-ue-test");
    for (const ran::OperatorId op : ran::kAllOperators) {
      ran::UeSimulator made =
          world.ue(op, stream, ran::TrafficProfile::BackloggedDl);
      ran::UeSimulator direct(world.corridor(), world.deployment(op),
                              world.profile(op), stream,
                              ran::TrafficProfile::BackloggedDl, spec.bands,
                              world.regime());
      EXPECT_TRUE(drive_from_start(made, world) ==
                  drive_from_start(direct, world))
          << spec.name << " " << ran::to_string(op);
      EXPECT_EQ(made.handovers(), direct.handovers())
          << spec.name << " " << ran::to_string(op);
    }
  }
}

TEST(World, UeCarriesTheScenarioBandPlan) {
  // eu-band-plan moves every carrier, so a UE on the default US plan in
  // the same World sees other signal levels: the factory's UE must not.
  const scenario::ScenarioSpec spec = scenario::load_scenario("eu-band-plan");
  const World world(spec, 42);
  const Rng& root = world.rng();
  const Rng stream = root.fork("world-ue-test");
  for (const ran::OperatorId op : ran::kAllOperators) {
    ran::UeSimulator made = world.ue(op, stream, ran::TrafficProfile::Idle);
    ran::UeSimulator us_plan(world.corridor(), world.deployment(op),
                             world.profile(op), stream,
                             ran::TrafficProfile::Idle,
                             radio::default_band_plan(), world.regime());
    const std::vector<ran::LinkSample> a = drive_from_start(made, world);
    const std::vector<ran::LinkSample> b = drive_from_start(us_plan, world);
    std::size_t differing = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].rsrp.value != b[i].rsrp.value) ++differing;
    }
    EXPECT_GT(differing, a.size() / 2) << ran::to_string(op);
  }
}

TEST(BaselineCities, ReturnsSiteCitiesInRouteOrder) {
  // One output per route city where the operator has a best 5G site, in
  // route order, whatever order the four workers finish in; a city
  // without a site is skipped. Across the shipped scenarios some
  // operator-city pairs have no site, so the skip is exercised.
  std::size_t skipped = 0;
  for (const scenario::ScenarioSpec& spec : scenario::builtin_scenarios()) {
    const World world(spec, 42);
    const Rng& root = world.rng();
    const Rng base = root.fork("baseline-test");
    for (const ran::OperatorId op : ran::kAllOperators) {
      std::vector<std::string> expected;
      for (const City& city : world.route().cities()) {
        if (world.best_5g_site(op, city) != nullptr) {
          expected.push_back(city.name);
        } else {
          ++skipped;
        }
      }
      const std::vector<std::string> got = run_baseline_cities(
          world, op, base, ran::TrafficProfile::Idle, "test.baseline", 4,
          [](BaselineCity& bc) { return bc.city.name; });
      EXPECT_EQ(got, expected) << spec.name << " " << ran::to_string(op);
    }
  }
  EXPECT_GT(skipped, std::size_t{0})
      << "no operator-city pair without a site: the skip went unexercised";
}

// What a test body sees of its city, reduced to comparable values.
struct CityContext {
  std::string city;
  double pos_m = 0.0;
  TimeZone tz = TimeZone::Pacific;
  double noon_ms = 0.0;
  net::ServerKind server_kind = net::ServerKind::Cloud;
  std::string server_name;
  double server_delay_ms = 0.0;
  std::uint64_t first_draw = 0;

  friend bool operator==(const CityContext&, const CityContext&) = default;
};

TEST(BaselineCities, CityContextIsTheBestSite) {
  // The UE stands at the site, the test starts at day-1 noon in the
  // site's time zone against the server selected there, and the city's
  // stream is base.fork(city name).
  const World world(scenario::paper_default(), 42);
  const Rng& root = world.rng();
  const Rng base = root.fork("baseline-test");
  for (const ran::OperatorId op : ran::kAllOperators) {
    std::vector<CityContext> expected;
    for (const City& city : world.route().cities()) {
      const ran::Cell* site = world.best_5g_site(op, city);
      if (site == nullptr) continue;
      const TimeZone tz = world.corridor().at(site->route_pos).tz;
      CivilTime noon;
      noon.day = 1;
      noon.hour = 12;
      const net::ServerEndpoint server =
          world.servers().select(op, site->route_pos, tz);
      Rng city_rng = base.fork(city.name);
      expected.push_back({city.name, site->route_pos.value, tz,
                          from_civil(noon, tz).ms_since_epoch, server.kind,
                          server.name, server.one_way_delay.value,
                          city_rng.next_u64()});
    }
    const std::vector<CityContext> got = run_baseline_cities(
        world, op, base, ran::TrafficProfile::Idle, "test.baseline", 1,
        [](BaselineCity& bc) {
          Rng city_rng = bc.rng;
          return CityContext{bc.city.name,
                             bc.pos.value,
                             bc.tz,
                             bc.noon.ms_since_epoch,
                             bc.server.kind,
                             bc.server.name,
                             bc.server.one_way_delay.value,
                             city_rng.next_u64()};
        });
    EXPECT_TRUE(got == expected) << ran::to_string(op);
  }
}

TEST(BaselineCities, UeIsTheWorldUeInFavourableConditions) {
  // Each city's UE is World::ue on the city's stream with favourable
  // conditions set: a minute parked at the site from noon, on four
  // workers, samples what that UE built by hand samples.
  const World world(scenario::paper_default(), 42);
  const Rng& root = world.rng();
  const Rng base = root.fork("baseline-test");
  constexpr int kSteps = 600;
  for (const ran::OperatorId op : ran::kAllOperators) {
    std::vector<std::vector<ran::LinkSample>> expected;
    for (const City& city : world.route().cities()) {
      const ran::Cell* site = world.best_5g_site(op, city);
      if (site == nullptr) continue;
      const TimeZone tz = world.corridor().at(site->route_pos).tz;
      CivilTime noon;
      noon.day = 1;
      noon.hour = 12;
      ran::UeSimulator ue = world.ue(op, base.fork(city.name),
                                     ran::TrafficProfile::BackloggedDl);
      ue.set_favourable_conditions(true);
      expected.push_back(drive(ue, from_civil(noon, tz), site->route_pos,
                               Mph{0.0}, kSteps));
    }
    const std::vector<std::vector<ran::LinkSample>> got = run_baseline_cities(
        world, op, base, ran::TrafficProfile::BackloggedDl, "test.baseline",
        4, [](BaselineCity& bc) {
          return drive(bc.ue, bc.noon, bc.pos, Mph{0.0}, kSteps);
        });
    ASSERT_EQ(got.size(), expected.size()) << ran::to_string(op);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i] == expected[i])
          << ran::to_string(op) << " city " << i;
    }
  }
}

}  // namespace
}  // namespace wheels::trip
