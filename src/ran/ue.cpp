#include "ran/ue.h"

#include <algorithm>
#include <cmath>

#include "radio/link_budget.h"

namespace wheels::ran {
namespace {

using radio::Direction;
using radio::Environment;
using radio::Tech;

constexpr std::size_t idx(Tech t) { return static_cast<std::size_t>(t); }

// One-way RAN latency floor per technology (scheduling + frame alignment).
Millis base_air_latency(Tech t) {
  switch (t) {
    case Tech::LTE: return Millis{16.0};
    case Tech::LTE_A: return Millis{13.0};
    case Tech::NR_LOW: return Millis{12.0};
    case Tech::NR_MID: return Millis{9.0};
    case Tech::NR_MMWAVE: return Millis{3.5};
  }
  return Millis{16.0};
}

}  // namespace

UeSimulator::UeSimulator(const Corridor& corridor,
                         const Deployment& deployment,
                         const OperatorProfile& profile, Rng rng,
                         TrafficProfile traffic, const radio::BandPlan& plan,
                         LoadRegime regime)
    : corridor_(corridor),
      deployment_(deployment),
      profile_(profile),
      rng_(rng),
      traffic_(traffic),
      plan_(plan),
      regime_(regime),
      blockage_(rng.fork("blockage"), Tech::NR_MMWAVE),
      fading_sub6_(rng.fork("fading-sub6"), Tech::NR_MID),
      fading_mmwave_(rng.fork("fading-mmw"), Tech::NR_MMWAVE),
      derived_(radio::derive_plan(plan)) {
  point_.resize(1);
}

void UeSimulator::set_traffic(TrafficProfile t) {
  if (t == traffic_) return;
  traffic_ = t;
  policy_initialized_ = false;  // re-evaluate promptly with the new context
}

std::size_t UeSimulator::unique_cell_count() const {
  std::vector<CellId> v = seen_cells_;
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v.size();
}

void UeSimulator::clear_history() {
  handovers_.clear();
  // seen_cells_ intentionally kept: Table 1 counts over the whole campaign.
}

double UeSimulator::draw_cell_load(Environment env, SimTime now, Meters pos) {
  (void)pos;
  // Identity regimes skip the scaling entirely so the paper-default draw
  // stays bit-identical (same arithmetic, same RNG consumption).
  double target = target_load(env);
  if (!regime_.is_identity()) {
    const CivilTime civil = to_civil(now, slot_.tz);
    target = std::clamp(target * regime_.scale(civil.hour), 0.0, 1.0);
  }
  if (favourable_) {
    // Hand-picked static spot: moderately loaded downtown sector.
    return std::clamp(
        target * 0.9 + rng_.normal(0.0, 0.5 * profile_.load_sigma),
        0.03, 0.70);
  }
  // A third of the cells along an interstate are congested (sector
  // overload) -- the main source of the paper's heavy <5 Mbps tail.
  if (rng_.chance(0.40)) return rng_.uniform(0.82, 0.99);
  return std::clamp(target + rng_.normal(0.0, profile_.load_sigma),
                    0.03, 0.98);
}

double UeSimulator::target_load(Environment env) const {
  switch (env) {
    case Environment::Urban: return profile_.load_urban;
    case Environment::Suburban: return profile_.load_suburban;
    case Environment::Rural: return profile_.load_rural;
  }
  return 0.4;
}

Dbm UeSimulator::layer_rsrp(Tech tech, const Cell& cell, double dist_m,
                            Environment env, Db shadow) const {
  radio::ChannelState ch;
  ch.shadowing = Db{shadow.value - cell.site_offset_db};
  if (tech == Tech::NR_MMWAVE) {
    ch.shadowing = ch.shadowing + profile_.mmwave_beam_penalty;
  }
  // Cached mirror of the link-budget RSRP: ((const - pl) - shadowing) -
  // blockage, with blockage 0 here (RSRP excludes fast fading and
  // blockage by construction of the callers).
  const radio::BandDerived& bd = derived_.band(tech);
  const double pl = radio::cached_pathloss_db(bd, env, dist_m);
  return Dbm{(bd.rsrp_const_db - pl) - ch.shadowing.value};
}

double UeSimulator::candidate_distance(Tech tech) const {
  return slot_.batch->layers[idx(tech)].dist_m[slot_.row];
}

double UeSimulator::serving_distance_m(Meters pos) const {
  const auto& layer = slot_.batch->layers[idx(serving_tech_)];
  if (layer.cell[slot_.row] == serving_cell_) {
    return layer.dist_m[slot_.row];  // same hypot, computed by the sweep
  }
  return Deployment::distance_to(*serving_cell_, pos).value;
}

void UeSimulator::ensure_layers(Environment env) {
  if (layers_ready_) return;
  for (Tech tech : radio::kAllTechs) {
    auto& layer = layers_[idx(tech)];
    if (!layer) {
      layer.emplace(LayerState{
          radio::ShadowingProcess::for_tech(
              // wheels-rng: dynamic(per-tech shadowing stream)
              rng_.fork(to_string(tech)).fork("shadow"), tech, env),
          nullptr});
    }
  }
  layers_ready_ = true;
}

void UeSimulator::begin_segment(const SegmentBatch& batch) {
  prefetched_ = nullptr;
  const std::size_t n = batch.size();
  if (n == 0) return;
  ensure_layers(batch.env[0]);

  // Per-slot travelled distance, from this UE's own last position -- the
  // exact per-step deltas stepping row by row would compute.
  travelled_scratch_.resize(n);
  travelled_scratch_[0] =
      first_step_ ? 0.0 : batch.pos_m[0] - last_pos_.value;
  for (std::size_t i = 1; i < n; ++i) {
    travelled_scratch_[i] = batch.pos_m[i] - batch.pos_m[i - 1];
  }

  // rho and sqrt(1 - rho^2) depend only on the layer's decorrelation
  // distance, so layers sharing a decorrelation class share the arrays
  // (three classes across the five technologies).
  std::array<std::size_t, 5> share{};
  for (std::size_t i = 0; i < 5; ++i) {
    share[i] = i;
    const double d_i = layers_[i]->shadowing.decorrelation_m();
    for (std::size_t j = 0; j < i; ++j) {
      const double d_j = layers_[j]->shadowing.decorrelation_m();
      if (!(d_i < d_j) && !(d_j < d_i)) {  // equal decorrelation
        share[i] = j;
        break;
      }
    }
    if (share[i] == i) {
      rho_rows_[i].resize(n);
      noise_rows_[i].resize(n);
      const radio::ShadowingProcess& sp = layers_[i]->shadowing;
      for (std::size_t k = 0; k < n; ++k) {
        const double rho = sp.rho_for(travelled_scratch_[k]);
        rho_rows_[i][k] = rho;
        noise_rows_[i][k] = std::sqrt(1.0 - rho * rho);
      }
    }
  }
  for (Tech tech : radio::kAllTechs) {
    const std::size_t i = idx(tech);
    shadow_rows_[i].resize(n);
    layers_[i]->shadowing.advance_span(rho_rows_[share[i]],
                                       noise_rows_[share[i]],
                                       shadow_rows_[i]);
  }
  prefetched_ = &batch;
}

LinkSample UeSimulator::step(SimTime now, Meters pos, Mph speed, Millis dt) {
  const CorridorSegment& here = corridor_.at(pos);
  point_.pos_m[0] = pos.value;
  point_.speed_mph[0] = speed.value;
  point_.env[0] = here.env;
  point_.tz[0] = here.tz;
  fill_nearest_cells(deployment_, profile_, point_);
  return step(now, dt, point_, 0);
}

LinkSample UeSimulator::step(SimTime now, Millis dt, const SegmentBatch& batch,
                             std::size_t row) {
  slot_ = SlotContext{};
  slot_.env = batch.env[row];
  slot_.tz = batch.tz[row];
  slot_.batch = &batch;
  slot_.row = row;

  const Meters pos{batch.pos_m[row]};
  const Mph speed{batch.speed_mph[row]};
  ensure_layers(batch.env[row]);
  if (prefetched_ == &batch) {
    for (Tech tech : radio::kAllTechs) {
      slot_.shadow_db[idx(tech)] = shadow_rows_[idx(tech)][row];
    }
  } else {
    const Meters travelled =
        first_step_ ? Meters{0.0} : Meters{pos.value - last_pos_.value};
    for (Tech tech : radio::kAllTechs) {
      slot_.shadow_db[idx(tech)] =
          layers_[idx(tech)]->shadowing.advance(travelled).value;
    }
  }
  last_pos_ = pos;
  first_step_ = false;
  for (Tech tech : radio::kAllTechs) {
    layers_[idx(tech)]->candidate = batch.layers[idx(tech)].cell[row];
  }
  return step_core(now, pos, speed, dt);
}

void UeSimulator::evaluate_policy(SimTime now, Meters pos, Mph speed) {
  const auto candidate = [&](Tech t) -> const Cell* {
    return layers_[idx(t)] ? layers_[idx(t)]->candidate : nullptr;
  };
  const Cell* mmw = candidate(Tech::NR_MMWAVE);
  const Cell* mid = candidate(Tech::NR_MID);
  const Cell* low = candidate(Tech::NR_LOW);
  const Cell* ltea = candidate(Tech::LTE_A);
  const Cell* lte = candidate(Tech::LTE);

  const ServicePolicy& pol = profile_.policy;
  double p_hs = 0.0;
  double p_any5g = 0.0;
  switch (traffic_) {
    case TrafficProfile::BackloggedDl:
      p_hs = pol.hs5g_given_dl;
      p_any5g = pol.low5g_given_traffic;
      break;
    case TrafficProfile::BackloggedUl:
      p_hs = pol.hs5g_given_ul;
      p_any5g = pol.low5g_given_traffic;
      break;
    case TrafficProfile::Interactive:
      p_hs = pol.hs5g_given_interactive;
      p_any5g = pol.low5g_given_traffic;
      break;
    case TrafficProfile::Idle:
      // Operators almost never elevate an idle UE to high-speed 5G --
      // the source of the passive-logger artifact (Fig. 1) -- and mmWave
      // essentially only when (nearly) stationary next to a site (Fig. 8).
      p_hs = pol.any5g_given_idle * 0.3;
      p_any5g = pol.any5g_given_idle;
      break;
  }

  // Standing right under a high-speed-5G site (the static baselines, or a
  // red light next to a mmWave pole): the strong CQI makes the operator
  // much more willing to promote.
  if (traffic_ != TrafficProfile::Idle) {
    const bool very_close =
        (mmw && candidate_distance(Tech::NR_MMWAVE) < 120.0) ||
        (mid && candidate_distance(Tech::NR_MID) < 250.0);
    if (very_close) {
      // Uplink promotion stays more conservative even next to the site.
      p_hs = std::max(
          p_hs, traffic_ == TrafficProfile::BackloggedUl ? 0.60 : 0.88);
    }
  }

  Tech pick;
  const Cell* pick_cell = nullptr;
  const bool mmwave_allowed =
      traffic_ != TrafficProfile::Idle || speed.value < 5.0;
  if ((mmw || mid) && rng_.chance(p_hs)) {
    if (mmw && mmwave_allowed) {
      pick = Tech::NR_MMWAVE;
      pick_cell = mmw;
    } else if (mid) {
      pick = Tech::NR_MID;
      pick_cell = mid;
    } else {
      pick = Tech::NR_MMWAVE;
      pick_cell = mmw;
    }
  } else if (low && rng_.chance(p_any5g)) {
    pick = Tech::NR_LOW;
    pick_cell = low;
  } else if (ltea) {
    pick = Tech::LTE_A;
    pick_cell = ltea;
  } else if (lte) {
    pick = Tech::LTE;
    pick_cell = lte;
  } else if (low) {
    pick = Tech::NR_LOW;
    pick_cell = low;
  } else if (mid) {
    pick = Tech::NR_MID;
    pick_cell = mid;
  } else {
    connected_ = false;
    serving_cell_ = nullptr;
    policy_initialized_ = true;
    next_policy_eval_ =
        now + profile_.policy.policy_dwell * rng_.uniform(0.7, 1.3);
    return;
  }

  // Carrier-aggregation configuration is re-negotiated with the decision.
  const radio::BandProfile& bp = plan_.profile(pick);
  auto draw_cc = [&](int max_cc, double p_extra) {
    int cc = 1;
    for (int i = 1; i < max_cc; ++i) {
      if (rng_.chance(p_extra)) ++cc;
    }
    return cc;
  };
  int max_cc_dl = bp.max_cc_dl;
  if (pick == Tech::NR_MMWAVE) {
    max_cc_dl = std::min(max_cc_dl, profile_.mmwave_max_cc_dl);
  }
  num_cc_dl_ = draw_cc(max_cc_dl, profile_.ca_extra_dl);
  num_cc_ul_ = draw_cc(bp.max_cc_ul, profile_.ca_extra_ul);

  const bool tech_change = !connected_ || pick != serving_tech_;
  const bool cell_change =
      connected_ && serving_cell_ && pick_cell->id != serving_cell_->id;
  if (tech_change || cell_change) {
    if (connected_ && serving_cell_) {
      begin_handover(now, pos, pick, pick_cell);
    } else {
      // Initial attach: no handover event.
      serving_tech_ = pick;
      serving_cell_ = pick_cell;
      connected_ = true;
      seen_cells_.push_back(pick_cell->id);
      load_ = load_target_ = draw_cell_load(slot_.env, now, pos);
    }
  }
  policy_initialized_ = true;
  next_policy_eval_ =
      now + profile_.policy.policy_dwell * rng_.uniform(0.7, 1.3);
}

Millis UeSimulator::sample_ho_duration() {
  const HandoverTiming& ht = profile_.handover;
  const Millis med = traffic_ == TrafficProfile::BackloggedUl
                         ? ht.median_ul
                         : ht.median_dl;
  return Millis{med.value * std::exp(rng_.normal(0.0, ht.sigma))};
}

void UeSimulator::begin_handover(SimTime now, Meters pos, Tech to_tech,
                                 const Cell* to_cell) {
  HandoverRecord rec;
  rec.time = now;
  rec.duration = sample_ho_duration();
  rec.from_tech = serving_tech_;
  rec.to_tech = to_tech;
  rec.from_cell = serving_cell_ ? serving_cell_->id : 0;
  rec.to_cell = to_cell->id;
  rec.position = pos;
  handovers_.push_back(rec);

  serving_tech_ = to_tech;
  serving_cell_ = to_cell;
  connected_ = true;
  ho_remaining_ = rec.duration;
  a3_target_ = nullptr;
  a3_accumulated_ = Millis{0.0};
  seen_cells_.push_back(to_cell->id);
  // New cell, new load conditions. An upgrade to 5G is not blind: the
  // network promotes UEs toward cells with spare capacity, so redraw once
  // if the first draw came up congested.
  load_ = load_target_ = draw_cell_load(slot_.env, now, pos);
  if (radio::is_5g(rec.to_tech) && !radio::is_5g(rec.from_tech) &&
      load_ > 0.8) {
    load_ = load_target_ = draw_cell_load(slot_.env, now, pos);
  }
}

void UeSimulator::maybe_start_handover(SimTime now, Meters pos, Millis dt) {
  if (!connected_ || !serving_cell_) return;
  auto& layer = layers_[idx(serving_tech_)];
  if (!layer) return;

  const Meters serving_dist{serving_distance_m(pos)};
  const Meters range = Deployment::service_range(serving_tech_, profile_);

  // Radio-link failure: serving cell left behind; snap to whatever the
  // layer offers now, or force a policy re-evaluation (possibly dropping
  // to another technology).
  if (serving_dist.value > range.value * 1.2) {
    if (layer->candidate && layer->candidate->id != serving_cell_->id) {
      begin_handover(now, pos, serving_tech_, layer->candidate);
    } else {
      policy_initialized_ = false;
    }
    return;
  }

  const Cell* neighbour = layer->candidate;
  if (!neighbour || neighbour->id == serving_cell_->id) {
    a3_target_ = nullptr;
    a3_accumulated_ = Millis{0.0};
    return;
  }

  // A3 event: neighbour better than serving by the offset, sustained for
  // the time-to-trigger. Measurement noise makes the comparison flicker,
  // which is the source of occasional ping-pong handovers.
  const Db shadow{slot_.shadow_db[idx(serving_tech_)]};
  const Dbm serving_rsrp = layer_rsrp(serving_tech_, *serving_cell_,
                                      serving_dist.value, slot_.env, shadow);
  const Dbm neigh_rsrp =
      layer_rsrp(serving_tech_, *neighbour, candidate_distance(serving_tech_),
                 slot_.env, shadow);
  const double noise_db =
      rng_.normal(0.0, profile_.handover.measurement_noise_db);
  const double advantage =
      neigh_rsrp.value - serving_rsrp.value + noise_db;

  if (advantage > profile_.handover.a3_offset.value) {
    if (a3_target_ != neighbour) {
      a3_target_ = neighbour;
      a3_accumulated_ = Millis{0.0};
    }
    a3_accumulated_ += dt;
    if (a3_accumulated_.value >= profile_.handover.time_to_trigger.value) {
      begin_handover(now, pos, serving_tech_, neighbour);
    }
  } else {
    a3_target_ = nullptr;
    a3_accumulated_ = Millis{0.0};
  }
}

LinkSample UeSimulator::step_core(SimTime now, Meters pos, Mph speed,
                                  Millis dt) {
  // Coverage signature: which technology layers are usable here. The
  // serving decision is sticky -- it is only reconsidered when the
  // signature changes (a layer appeared/disappeared), the traffic context
  // changed (set_traffic), or the dwell expires.
  unsigned signature = 0;
  for (Tech t : radio::kAllTechs) {
    if (layers_[idx(t)] && layers_[idx(t)]->candidate) {
      signature |= 1u << idx(t);
    }
  }
  if (!policy_initialized_ || signature != last_avail_signature_ ||
      !(now < next_policy_eval_)) {
    last_avail_signature_ = signature;
    evaluate_policy(now, pos, speed);
  }
  // Coverage lost for the serving technology: re-evaluate immediately.
  if (connected_ && serving_cell_) {
    const Meters d{serving_distance_m(pos)};
    if (d.value >
        Deployment::service_range(serving_tech_, profile_).value * 1.2) {
      maybe_start_handover(now, pos, dt);
    }
  }
  if (!connected_) {
    evaluate_policy(now, pos, speed);
  }

  // Serving-cell load drifts as an OU process.
  const Environment env = slot_.env;
  {
    // The load fluctuates around the cell's own character: a congested
    // cell stays congested for the whole dwell on it.
    const double theta = std::min(1.0, dt.value / 60'000.0);
    load_ += theta * (load_target_ - load_) +
             0.35 * profile_.load_sigma *
                 std::sqrt(std::min(1.0, dt.value / 1'000.0)) *
                 rng_.normal();
    load_ = std::clamp(load_, 0.03, 0.98);
  }

  LinkSample s;
  s.cell_load = load_;
  if (!connected_ || !serving_cell_) {
    return s;  // disconnected sample: rate 0, rsrp floor
  }

  // Handover progression.
  if (ho_remaining_.value > 0.0) {
    ho_remaining_ -= dt;
    s.in_handover = true;
  } else {
    maybe_start_handover(now, pos, dt);
    if (ho_remaining_.value > 0.0) s.in_handover = true;
  }

  const Tech tech = serving_tech_;
  const Db shadow{slot_.shadow_db[idx(tech)]};
  const Meters dist{serving_distance_m(pos)};

  s.connected = true;
  s.tech = tech;
  s.cell = serving_cell_->id;

  // Channel for SINR: shadowing + fast fading + blockage. (Built before
  // the RSRP so one path-loss evaluation serves both; neither the channel
  // construction nor the RSRP draws from the RNG.)
  radio::ChannelState ch;
  ch.shadowing = Db{shadow.value - serving_cell_->site_offset_db +
                    (tech == Tech::NR_MMWAVE
                         ? profile_.mmwave_beam_penalty.value
                         : 0.0)};
  ch.blockage_loss = blockage_.advance(dt);
  const double doppler_scale = 1.0 + speed.value / 150.0;
  const Db ff = (tech == Tech::NR_MMWAVE ? fading_mmwave_ : fading_sub6_)
                    .sample_db();
  ch.fast_fading = Db{ff.value * doppler_scale};

  // Neighbour-cell interference grows with load and towards the cell
  // edge (frequency reuse 1).
  const double range =
      Deployment::service_range(tech, profile_).value;
  const double edge = std::max(0.0, dist.value / range - 0.55) / 0.45;
  // Channel aging: at speed, CQI reports lag the channel and beam/MIMO
  // tracking degrades, costing effective SINR.
  const double aging_db = std::min(9.0, 0.12 * speed.value);
  const Db margin_dl{2.0 + 22.0 * load_ + 9.0 * edge + aging_db};
  const Db margin_ul{1.0 + 7.0 * load_ + 5.0 * edge + aging_db};
  // Downlink PRBs are contended by every user of the cell; the uplink is
  // typically emptier, so the backlogged UE keeps a larger share there.
  const double prb_dl = std::max(0.02, std::pow(1.0 - load_, 1.5));
  const double prb_ul = std::max(0.06, std::pow(1.0 - load_, 0.6));

  // Cached mirrors of the link budget and PHY rate (radio/kernel.h): one
  // hoisted path loss shared by the reported RSRP, RSRP-for-SINR and both
  // SINR directions, table-driven adaptation.
  const radio::BandDerived& bd = derived_.band(tech);
  const double pl = radio::cached_pathloss_db(bd, env, dist.value);
  s.rsrp = Dbm{(bd.rsrp_const_db - pl) - ch.shadowing.value};
  const double rsrp_sinr =
      ((bd.rsrp_const_db - pl) - ch.shadowing.value) - ch.blockage_loss.value;
  const double rx_dl = rsrp_sinr + ch.fast_fading.value;
  s.sinr_dl = Db{(rx_dl - radio::kNoisePerRe.value) - margin_dl.value};
  const double rx_ul = (((bd.ul_const_db - pl) - ch.shadowing.value) -
                        ch.blockage_loss.value) +
                       ch.fast_fading.value;
  s.sinr_ul = Db{(rx_ul - radio::kNoisePerRe.value) - margin_ul.value};
  const radio::PhyRateResult dl = radio::cached_phy_rate(
      derived_, bd, Direction::Downlink, s.sinr_dl, num_cc_dl_, prb_dl);
  const radio::PhyRateResult ul = radio::cached_phy_rate(
      derived_, bd, Direction::Uplink, s.sinr_ul, num_cc_ul_, prb_ul);
  s.mcs_dl = dl.mcs;
  s.mcs_ul = ul.mcs;
  s.bler_dl = dl.bler;
  s.bler_ul = ul.bler;
  s.num_cc_dl = dl.num_cc;
  s.num_cc_ul = ul.num_cc;
  // The site's wired backhaul caps what the radio can deliver; the cap is
  // shared with the other users of the cell.
  Mbps rate_dl = dl.rate;
  Mbps rate_ul = ul.rate * profile_.ul_peak_scale;
  if (!favourable_) {
    const double bh =
        serving_cell_->backhaul_dl_mbps * profile_.backhaul_scale;
    const double bh_share = std::max(0.08, 1.0 - 0.75 * load_);
    rate_dl = std::min(rate_dl, Mbps{bh * bh_share});
    rate_ul = std::min(rate_ul, Mbps{bh / 4.5 * bh_share});
  }
  s.phy_rate_dl = s.in_handover ? Mbps{0.0} : rate_dl;
  s.phy_rate_ul = s.in_handover ? Mbps{0.0} : rate_ul;

  // One-way RAN latency: technology floor + load-dependent queueing +
  // HARQ retransmission spikes + speed sensitivity.
  double lat = base_air_latency(tech).value + profile_.core_latency_ms;
  lat += rng_.exponential(1.0 + 6.0 * load_);
  if (rng_.chance(std::min(0.5, dl.bler))) lat += rng_.exponential(12.0);
  lat += profile_.latency_per_mph * speed.value;
  if (s.in_handover) lat += std::max(0.0, ho_remaining_.value);
  s.air_latency = Millis{std::max(0.5, lat)};

  return s;
}

}  // namespace wheels::ran
