// The per-city fan-out of the static baselines: the drive campaign's
// best-static network tests (Fig. 3a) and the app campaign's best-static
// sessions (Figs. 13-16) both stand next to each city's best 5G site.
//
// run_baseline_cities() owns everything the two share: the
// `<prefix>.<city>` span, one worker per city, the site lookup (a city
// without a site is skipped, like the study did), the site's position,
// time zone, day-1 noon and server, the UE parked there in favourable
// conditions, and one output slot per city merged in route order. The
// caller supplies only its test body.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/sim_time.h"
#include "core/thread_pool.h"
#include "core/units.h"
#include "net/server.h"
#include "obs/trace.h"
#include "ran/operator_profile.h"
#include "ran/ue.h"
#include "trip/route.h"
#include "trip/world.h"

namespace wheels::trip {

// One city of a static baseline, as its test body sees it.
struct BaselineCity {
  const City& city;
  Meters pos;                  // standing right by the site
  TimeZone tz;                 // of the site
  SimTime noon;                // day 1, 12:00 local: the test's start
  net::ServerEndpoint server;  // selected for the site
  // The city's own stream (base.fork(city.name)); the UE draws from a
  // copy, every other process of the city forks from it.
  const Rng& rng;
  ran::UeSimulator& ue;  // favourable conditions, the caller's traffic
};

// Run `body(BaselineCity&)` once per route city where `op` has a best 5G
// site (World::best_5g_site), each city on its own worker under the span
// `<span_prefix>.<city name>`, and return the outputs in route order.
// Every stream a city consumes forks from base.fork(city.name), and each
// city writes only its own slot, so the result is the same for any jobs.
template <typename Body>
auto run_baseline_cities(const World& world, ran::OperatorId op,
                         const Rng& base, ran::TrafficProfile traffic,
                         std::string_view span_prefix, int jobs, Body body)
    -> std::vector<std::invoke_result_t<Body&, BaselineCity&>> {
  using Out = std::invoke_result_t<Body&, BaselineCity&>;
  const auto& cities = world.route().cities();
  std::vector<std::optional<Out>> slots(cities.size());
  parallel_for_each(jobs, cities.size(), [&](std::size_t ci) {
    const City& city = cities[ci];
    std::string span_name(span_prefix);
    span_name += '.';
    span_name += city.name;
    const obs::Span span(span_name);
    const ran::Cell* site = world.best_5g_site(op, city);
    if (!site) return;

    const Meters pos = site->route_pos;
    const TimeZone tz = world.corridor().at(pos).tz;
    CivilTime noon;
    noon.day = 1;
    noon.hour = 12;
    const Rng city_rng = base.fork(city.name);  // wheels-rng: dynamic(one stream per city)
    ran::UeSimulator ue = world.ue(op, city_rng, traffic);
    ue.set_favourable_conditions(true);
    BaselineCity bc{city,
                    pos,
                    tz,
                    from_civil(noon, tz),
                    world.servers().select(op, pos, tz),
                    city_rng,
                    ue};
    slots[ci].emplace(body(bc));
  });

  std::vector<Out> out;
  for (std::optional<Out>& slot : slots) {
    if (slot) out.push_back(std::move(*slot));
  }
  return out;
}

}  // namespace wheels::trip
