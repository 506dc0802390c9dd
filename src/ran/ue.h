// The UE (user equipment) simulator: serving-technology selection,
// measurement-driven handovers, carrier aggregation, and per-slot PHY
// rates, as the vehicle moves along the corridor.
//
// This is the component the XCAL Solo taps in the real study: every call to
// step() corresponds to one diagnostic snapshot (RSRP, MCS, BLER, CA,
// serving cell, handover state) plus the achievable PHY goodput that feeds
// the transport simulation.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "core/rng.h"
#include "core/sim_time.h"
#include "core/units.h"
#include "radio/band.h"
#include "radio/fading.h"
#include "radio/kernel.h"
#include "radio/phy_rate.h"
#include "ran/deployment.h"
#include "ran/kernel.h"
#include "ran/operator_profile.h"

namespace wheels::ran {

// One diagnostic snapshot, produced per simulation step.
struct LinkSample {
  bool connected = false;
  radio::Tech tech = radio::Tech::LTE;
  CellId cell = 0;
  Dbm rsrp{-140.0};
  Db sinr_dl{-10.0};
  Db sinr_ul{-10.0};
  int mcs_dl = 0;
  int mcs_ul = 0;
  double bler_dl = 1.0;
  double bler_ul = 1.0;
  int num_cc_dl = 1;
  int num_cc_ul = 1;
  Mbps phy_rate_dl{0.0};
  Mbps phy_rate_ul{0.0};
  bool in_handover = false;
  Millis air_latency{20.0};  // one-way RAN latency component
  double cell_load = 0.0;

  [[nodiscard]] Mbps phy_rate(radio::Direction d) const {
    return d == radio::Direction::Downlink ? phy_rate_dl : phy_rate_ul;
  }

  friend bool operator==(const LinkSample&, const LinkSample&) = default;
};

struct HandoverRecord {
  SimTime time;
  Millis duration{0.0};
  radio::Tech from_tech = radio::Tech::LTE;
  radio::Tech to_tech = radio::Tech::LTE;
  CellId from_cell = 0;
  CellId to_cell = 0;
  Meters position{0.0};

  [[nodiscard]] radio::HandoverKind kind() const {
    return radio::classify_handover(from_tech, to_tech);
  }

  friend bool operator==(const HandoverRecord&,
                         const HandoverRecord&) = default;
};

class UeSimulator {
 public:
  // `plan` selects the band catalog every link-budget/PHY computation uses
  // (scenarios swap it wholesale); `regime` applies diurnal load scaling
  // when a cell's load character is drawn. The defaults reproduce the
  // paper's behavior exactly.
  UeSimulator(const Corridor& corridor, const Deployment& deployment,
              const OperatorProfile& profile, Rng rng,
              TrafficProfile traffic = TrafficProfile::Idle,
              const radio::BandPlan& plan = radio::default_band_plan(),
              LoadRegime regime = LoadRegime{});

  // Change the traffic context (forces a policy re-evaluation).
  void set_traffic(TrafficProfile t);

  // "Best static conditions": the study's per-city baselines were taken
  // facing a downtown site (fibered backhaul, off-peak sector). Suppresses
  // the congested-cell mixture and the backhaul cap.
  void set_favourable_conditions(bool f) { favourable_ = f; }
  [[nodiscard]] TrafficProfile traffic() const { return traffic_; }

  // One step of the KPI chain for the UE at batch row `row`: position,
  // speed, environment, timezone and candidate cells come from the batch;
  // `now` is the simulated time and `dt` the elapsed time since the
  // previous step. Rows prefetched by begin_segment() supply this step's
  // shadowing; otherwise (a batch this UE did not prefetch, such as the
  // passive logger borrowing the test phone's batch on its own cadence)
  // shadowing advances per call from the UE's last position.
  LinkSample step(SimTime now, Millis dt, const SegmentBatch& batch,
                  std::size_t row);

  // Prefetch the per-layer shadowing rows for every row of `batch` (the
  // same recurrence and per-stream RNG draw order as advancing per step),
  // for a caller that then steps rows 0..size-1 in order.
  void begin_segment(const SegmentBatch& batch);

  // Point step at corridor position `pos` (monotonic non-decreasing):
  // fills the UE's own one-row batch from Corridor/Deployment lookups and
  // steps it. For callers that move one point at a time (app sessions,
  // the static baselines, tests).
  LinkSample step(SimTime now, Meters pos, Mph speed, Millis dt);

  [[nodiscard]] const std::vector<HandoverRecord>& handovers() const {
    return handovers_;
  }
  // Unique cells ever connected to (Table 1 statistic).
  [[nodiscard]] std::size_t unique_cell_count() const;
  // Raw connection history (cell ids in attach order, with repeats).
  [[nodiscard]] const std::vector<CellId>& seen_cells() const {
    return seen_cells_;
  }

  // Drop accumulated history (between campaign phases) without resetting
  // radio state.
  void clear_history();

 private:
  struct LayerState {
    radio::ShadowingProcess shadowing;
    const Cell* candidate = nullptr;  // nearest usable cell this step
  };

  // The step in flight: its batch row and this step's shadowing. Valid
  // for the duration of one step().
  struct SlotContext {
    radio::Environment env = radio::Environment::Rural;
    TimeZone tz = TimeZone::Pacific;
    const SegmentBatch* batch = nullptr;
    std::size_t row = 0;
    std::array<double, 5> shadow_db{};  // this step's shadowing, per layer
  };

  LinkSample step_core(SimTime now, Meters pos, Mph speed, Millis dt);
  void ensure_layers(radio::Environment env);
  void evaluate_policy(SimTime now, Meters pos, Mph speed);
  // Distance to the current candidate of `tech` (the batch column).
  [[nodiscard]] double candidate_distance(radio::Tech tech) const;
  // Distance to the serving cell: the fill sweep's hypot whenever the
  // serving cell is this row's candidate, Deployment::distance_to else.
  [[nodiscard]] double serving_distance_m(Meters pos) const;
  [[nodiscard]] Dbm layer_rsrp(radio::Tech tech, const Cell& cell,
                               double dist_m, radio::Environment env,
                               Db shadow) const;
  void maybe_start_handover(SimTime now, Meters pos, Millis dt);
  void begin_handover(SimTime now, Meters pos, radio::Tech to_tech,
                      const Cell* to_cell);
  [[nodiscard]] double target_load(radio::Environment env) const;
  [[nodiscard]] double draw_cell_load(radio::Environment env, SimTime now,
                                      Meters pos);
  [[nodiscard]] Millis sample_ho_duration();

  const Corridor& corridor_;
  const Deployment& deployment_;
  const OperatorProfile& profile_;
  Rng rng_;
  TrafficProfile traffic_;
  const radio::BandPlan& plan_;
  LoadRegime regime_;

  std::array<std::optional<LayerState>, 5> layers_;
  radio::BlockageProcess blockage_;
  radio::FastFading fading_sub6_;
  radio::FastFading fading_mmwave_;

  // Serving state.
  bool connected_ = false;
  radio::Tech serving_tech_ = radio::Tech::LTE;
  const Cell* serving_cell_ = nullptr;
  double load_ = 0.4;  // serving-cell background load (OU process)
  double load_target_ = 0.4;  // the cell's own character (congested or not)
  int num_cc_dl_ = 1;
  int num_cc_ul_ = 1;

  // Policy stickiness: decisions persist until the coverage signature
  // changes, the traffic context changes, or a long dwell expires.
  SimTime next_policy_eval_{};
  bool policy_initialized_ = false;
  unsigned last_avail_signature_ = 0;

  // A3 time-to-trigger accumulation toward a candidate target.
  const Cell* a3_target_ = nullptr;
  Millis a3_accumulated_{0.0};

  // In-progress handover interruption.
  Millis ho_remaining_{0.0};

  Meters last_pos_{0.0};
  bool first_step_ = true;
  bool favourable_ = false;

  // KPI-chain state. `derived_` hoists the plan's band constants and
  // adaptation tables; `prefetched_` is the batch begin_segment() filled
  // the shadowing rows for; `point_` is the point step's one-row batch.
  // The scratch rows are reused segment to segment.
  radio::DerivedPlan derived_;
  SlotContext slot_;
  bool layers_ready_ = false;
  const SegmentBatch* prefetched_ = nullptr;
  SegmentBatch point_;
  std::array<std::vector<double>, 5> shadow_rows_;
  std::array<std::vector<double>, 5> rho_rows_;
  std::array<std::vector<double>, 5> noise_rows_;
  std::vector<double> travelled_scratch_;

  std::vector<HandoverRecord> handovers_;
  std::vector<CellId> seen_cells_;  // sorted-unique on query
};

}  // namespace wheels::ran
