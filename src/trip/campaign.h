// The measurement campaign: drives the route once, running the study's
// round-robin network test suite (30 s downlink bulk, 30 s uplink bulk,
// 20 s ICMP RTT) simultaneously on three phones (one per operator), while
// three passive "handover-logger" phones record technology and handovers
// continuously. Also provides the per-city static baselines of Fig. 3a.
//
// Execution model (see DESIGN.md "Parallel execution model"): the drive is
// recorded once into a Trajectory, then each operator's PhoneSet replays it
// on its own worker thread. Results are bit-identical for any jobs count
// because every stochastic process is pinned to per-operator (or per-city)
// Rng forks and outputs land in per-operator slots assembled in fixed
// order. Every run owns its state: a call builds its phones, logs and
// scratch and returns the result by value, so a Campaign holds only its
// config, its World and its worker count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/units.h"
#include "ran/kernel.h"
#include "ran/operator_profile.h"
#include "scenario/spec.h"
#include "trip/records.h"
#include "trip/trajectory.h"
#include "trip/world.h"

namespace wheels::trip {

struct CampaignConfig {
  std::uint64_t seed = 42;
  // Run every k-th test cycle and fast-forward the rest: k=1 reproduces
  // the full campaign; k=4 gives a 4x faster run with 1/4 of the samples
  // but the same geographic spread.
  int cycle_stride = 1;
  // The declarative scenario the campaign realizes; every timing and drive
  // value is read from it where it is used. The default reproduces the
  // study.
  scenario::ScenarioSpec spec = scenario::paper_default();
  // Execution knobs (worker count) live outside this struct on purpose:
  // they must never affect the dataset fingerprint or the result bytes.

  // A config for a validated scenario at its own seed. `cycle_stride` is
  // an execution knob, not part of the scenario (it changes sample
  // density, not the world being simulated).
  static CampaignConfig from_scenario(const scenario::ScenarioSpec& spec,
                                      int cycle_stride = 1);
};

struct CampaignResult {
  std::array<OperatorLogs, 3> logs;  // indexed by OperatorId value
  Meters route_length{0.0};
  int days = 0;
  Millis drive_time{0.0};

  [[nodiscard]] const OperatorLogs& for_op(ran::OperatorId op) const {
    return logs[static_cast<std::size_t>(op)];
  }

  friend bool operator==(const CampaignResult&,
                         const CampaignResult&) = default;
};

// Per-city static baseline (the "best static conditions" of Fig. 3a).
struct StaticBaseline {
  ran::OperatorId op = ran::OperatorId::Verizon;
  std::vector<double> dl_tput_mbps;  // 500 ms samples over all cities
  std::vector<double> ul_tput_mbps;
  std::vector<double> rtt_ms;
  int cities_tested = 0;

  friend bool operator==(const StaticBaseline&,
                         const StaticBaseline&) = default;
};

class Campaign {
 public:
  explicit Campaign(CampaignConfig cfg = CampaignConfig{});

  // Run the full driving campaign. Each call simulates from fresh phones
  // (nothing persists between calls, so a call that threw leaves nothing
  // behind) and is safe to make from several threads at once.
  [[nodiscard]] CampaignResult run() const;

  // Static measurements near the best high-speed-5G site of each major
  // city (skipping operator-city pairs without mmWave/mid-band, like the
  // study did). Cities fan out across workers; samples are merged in route
  // order so the result is independent of the jobs count.
  [[nodiscard]] StaticBaseline run_static_baseline(ran::OperatorId op) const;

  // Worker threads used by run()/run_static_baseline. jobs <= 0 resolves
  // from WHEELS_JOBS (default 1). Changing it never changes results, only
  // wall-clock time.
  void set_jobs(int jobs);
  [[nodiscard]] int jobs() const { return jobs_; }

 private:
  struct PhoneSet;  // one operator's UEs, TCP flow, logs and scratch

  void replay_operator(PhoneSet& ph, const Trajectory& traj) const;
  void replay_bulk(PhoneSet& ph, const Trajectory& traj,
                   const TrajectorySegment& seg, TestType type) const;
  void replay_rtt(PhoneSet& ph, const Trajectory& traj,
                  const TrajectorySegment& seg) const;
  void replay_idle(PhoneSet& ph, const Trajectory& traj,
                   const TrajectorySegment& seg) const;
  // The passive UE borrows the test UE's segment batch on its own cadence.
  void step_passive(PhoneSet& ph, const TrajectoryPoint& pt, Millis dt,
                    const ran::SegmentBatch& batch, std::size_t row) const;
  // Fill the phone set's scratch batch for `seg` (zero rows for an empty
  // segment) and prefetch the test UE's shadowing for it.
  const ran::SegmentBatch& prepare_batch(PhoneSet& ph, const Trajectory& traj,
                                         const TrajectorySegment& seg) const;

  CampaignConfig cfg_;
  World world_;
  int jobs_ = 1;
};

}  // namespace wheels::trip
