// Runs the four "5G killer" apps along the drive, round-robin, one phone
// per operator (all phones share the car, hence the trajectory), plus the
// per-city best-static baselines.
//
// Cycle per operator: AR w/o compression, AR w/ compression, CAV w/o,
// CAV w/ (20 s each), 360-video (180 s), cloud gaming (60 s), separated by
// short gaps -- the study's round-robin of §3.
//
// Execution model (DESIGN.md "Parallel execution model"): run() steps each
// operator's phone on its own worker and run_static_baseline() fans out
// per city through the drive campaign's trip::run_baseline_cities. Every
// stream a phone or city draws from is forked from the World's root, and
// each writes only its own result slot, so the bytes are the same for any
// jobs count. Idle gaps and skipped cycles fast-forward through a
// phone-owned SegmentBatch filled by trip::fill_batch. Every run owns its
// state: a call builds its phones and records and returns them by value.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "apps/gaming.h"
#include "apps/offload.h"
#include "apps/video.h"
#include "core/rng.h"
#include "net/server.h"
#include "ran/operator_profile.h"
#include "scenario/spec.h"
#include "trip/world.h"

namespace wheels::apps {

enum class AppKind : std::uint8_t { Ar, Cav, Video, Gaming };

[[nodiscard]] constexpr std::string_view to_string(AppKind a) {
  switch (a) {
    case AppKind::Ar: return "AR";
    case AppKind::Cav: return "CAV";
    case AppKind::Video: return "360-video";
    case AppKind::Gaming: return "cloud-gaming";
  }
  return "?";
}

// One app run with its mobility/radio context. Metric fields not relevant
// to the app kind stay zero.
struct AppRunRecord {
  AppKind app = AppKind::Ar;
  bool compression = false;  // AR/CAV only
  ran::OperatorId op = ran::OperatorId::Verizon;
  SimTime start;
  Meters position{0.0};
  TimeZone tz = TimeZone::Pacific;
  net::ServerKind server = net::ServerKind::Cloud;
  int handovers = 0;
  double frac_high_speed_5g = 0.0;
  // AR / CAV.
  double mean_e2e_ms = 0.0;
  double median_e2e_ms = 0.0;
  double offloaded_fps = 0.0;
  double map = 0.0;  // AR only
  std::vector<double> e2e_ms;
  // Video.
  double qoe = 0.0;
  double avg_bitrate_mbps = 0.0;
  double rebuffer_fraction = 0.0;
  // Gaming.
  double gaming_bitrate_mbps = 0.0;
  double gaming_latency_ms = 0.0;
  double frame_drop_rate = 0.0;

  friend bool operator==(const AppRunRecord&, const AppRunRecord&) = default;
};

struct AppCampaignConfig {
  std::uint64_t seed = 42;
  // Run every k-th cycle (fast-forwarding the rest) to trade sample count
  // for runtime; geographic spread is preserved.
  int cycle_stride = 1;
  // The scenario this app campaign realizes: route, roster, band plan,
  // load regime, gap and drive timing, and which app families run
  // (spec.apps).
  scenario::ScenarioSpec spec = scenario::paper_default();

  // A config for a validated scenario at its own seed.
  static AppCampaignConfig from_scenario(const scenario::ScenarioSpec& spec,
                                         int cycle_stride = 1);
};

struct AppCampaignResult {
  std::array<std::vector<AppRunRecord>, 3> runs;  // by OperatorId

  [[nodiscard]] const std::vector<AppRunRecord>& for_op(
      ran::OperatorId op) const {
    return runs[static_cast<std::size_t>(op)];
  }

  friend bool operator==(const AppCampaignResult&,
                         const AppCampaignResult&) = default;
};

class AppCampaign {
 public:
  explicit AppCampaign(AppCampaignConfig cfg = AppCampaignConfig{});

  // Run the driving campaign for all three operators, one phone per
  // worker. Each call simulates from fresh phones and is safe to make from
  // several threads at once.
  [[nodiscard]] AppCampaignResult run() const;

  // Best-static baselines: several runs next to the best high-speed-5G
  // site of each major city; the study quotes the best run. Cities fan
  // out across workers; records are merged in route order.
  [[nodiscard]] std::vector<AppRunRecord> run_static_baseline(
      ran::OperatorId op) const;

  // Worker threads used by run()/run_static_baseline. jobs <= 0 resolves
  // from WHEELS_JOBS (default 1). Changing it never changes results, only
  // wall-clock time.
  void set_jobs(int jobs);
  [[nodiscard]] int jobs() const { return jobs_; }

 private:
  AppCampaignConfig cfg_;
  trip::World world_;
  int jobs_ = 1;
};

}  // namespace wheels::apps
