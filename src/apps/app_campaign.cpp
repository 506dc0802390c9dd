#include "apps/app_campaign.h"

#include <iterator>
#include <string>

#include "apps/accuracy.h"
#include "core/thread_pool.h"
#include "obs/trace.h"
#include "ran/kernel.h"
#include "ran/ue.h"
#include "trip/baseline.h"
#include "trip/trajectory.h"

namespace wheels::apps {
namespace {

using ran::OperatorId;

constexpr Millis kArFrameInterval{1'000.0 / 30.0};

// The most rows an idle batch holds before it is stepped: the cap keeps a
// long skipped stretch from growing the batch (and the UE's shadowing
// rows) with it.
constexpr std::size_t kIdleBatchRows = 256;

// Fill the app-specific metric fields of a record.
void fill_offload(AppRunRecord& rec, const OffloadRunResult& r,
                  bool is_ar, bool compression) {
  rec.mean_e2e_ms = r.mean_e2e_ms;
  rec.median_e2e_ms = r.median_e2e_ms;
  rec.offloaded_fps = r.offloaded_fps;
  rec.e2e_ms = r.e2e_ms;
  rec.frac_high_speed_5g = r.frac_high_speed_5g;
  if (is_ar) {
    rec.map = run_map(r.e2e_ms, kArFrameInterval, compression);
  }
}

}  // namespace

AppCampaignConfig AppCampaignConfig::from_scenario(
    const scenario::ScenarioSpec& spec, int cycle_stride) {
  scenario::validate(spec);
  AppCampaignConfig cfg;
  cfg.seed = spec.seed;
  cfg.cycle_stride = cycle_stride;
  cfg.spec = spec;
  return cfg;
}

AppCampaign::AppCampaign(AppCampaignConfig cfg)
    : cfg_(std::move(cfg)),
      world_(cfg_.spec, cfg_.seed),
      jobs_(resolve_jobs()) {}

void AppCampaign::set_jobs(int jobs) { jobs_ = resolve_jobs(jobs); }

AppCampaignResult AppCampaign::run() const {
  AppCampaignResult result;
  const Rng& root = world_.rng();
  const trip::DriveConfig drive = trip::drive_from_spec(cfg_.spec);
  const Millis gap_len{cfg_.spec.timing.gap_ms};
  const scenario::AppMixSpec& mix = cfg_.spec.apps;
  // Skipped-cycle drive time: each enabled offload run is 20 s, video
  // 180 s, gaming 60 s, one gap after every enabled run. The default mix
  // evaluates to exactly the pre-scenario constant.
  const double offload_runs =
      (mix.ar ? 2.0 : 0.0) + (mix.cav ? 2.0 : 0.0);
  const double gap_count = offload_runs + (mix.video ? 1.0 : 0.0) +
                           (mix.gaming ? 1.0 : 0.0);
  const Millis skip_len{offload_runs * 20'000.0 +
                        (mix.video ? 180'000.0 : 0.0) +
                        (mix.gaming ? 60'000.0 : 0.0) +
                        gap_count * gap_len.value};

  // One phone per worker. Phones share only the read-only World, fork
  // every stream they draw from, and write only their own runs slot.
  parallel_for_each(jobs_, ran::kAllOperators.size(), [&](std::size_t oi) {
    const OperatorId op = ran::kAllOperators[oi];
    const scenario::OperatorSpec& ospec = cfg_.spec.operators[oi];
    std::string span_name = "apps.campaign.";
    span_name += ospec.name;
    const obs::Span span(span_name);
    std::vector<AppRunRecord>& runs = result.runs[oi];
    // Same trip seed for every operator: the phones share the car.
    trip::TripSimulator trip(world_.route(), world_.corridor(),
                             root.fork("trip"), drive);
    ran::UeSimulator ue =
        world_.ue(op,
                  // wheels-rng: dynamic(per-operator UE stream)
                  root.fork(ospec.name).fork("app-ue"),
                  ran::TrafficProfile::Interactive);
    // wheels-rng: dynamic(per-operator app-session stream)
    Rng app_rng = root.fork(ospec.name).fork("apps");

    LinkEnv env;
    env.step = [&](Millis dt) {
      const auto pt = trip.advance(dt);
      return ue.step(pt.time, pt.position, pt.speed, dt);
    };

    // Idle fast-forward: the drive advances in trip::kIdleStep steps into
    // up to kIdleBatchRows resolved points, which are filled into this
    // phone's batch and stepped through the batched chain whenever they
    // fill up and at the end of the gap. The trip and the UE draw from
    // disjoint streams, so advancing the trip ahead of the UE changes no
    // bytes.
    ran::SegmentBatch idle;
    std::vector<trip::TrajectoryPoint> idle_points;
    idle_points.reserve(kIdleBatchRows);
    const auto step_idle = [&] {
      if (idle_points.empty()) return;
      trip::fill_batch(idle_points, world_.deployment(op), world_.profile(op),
                       idle);
      ue.begin_segment(idle);
      for (std::size_t row = 0; row < idle_points.size(); ++row) {
        ue.step(idle_points[row].time, trip::kIdleStep, idle, row);
      }
      idle_points.clear();
    };
    auto gap = [&](Millis duration) {
      ue.set_traffic(ran::TrafficProfile::Idle);
      for (Millis el{0.0}; el.value < duration.value && !trip.finished();
           el += trip::kIdleStep) {
        idle_points.push_back(
            trip::resolve(trip.advance(trip::kIdleStep), world_.corridor()));
        if (idle_points.size() == kIdleBatchRows) step_idle();
      }
      step_idle();
      ue.set_traffic(ran::TrafficProfile::Interactive);
    };

    auto begin_record = [&](AppKind app, bool compression) {
      AppRunRecord rec;
      rec.app = app;
      rec.compression = compression;
      rec.op = op;
      rec.start = trip.current().time;
      rec.position = trip.current().position;
      rec.tz = world_.corridor().at(rec.position).tz;
      const auto ep = world_.servers().select(op, rec.position, rec.tz);
      rec.server = ep.kind;
      env.path_one_way = ep.one_way_delay;
      return rec;
    };

    int cycle = 0;
    while (!trip.finished()) {
      if (cfg_.cycle_stride > 1 && (cycle % cfg_.cycle_stride) != 0) {
        gap(skip_len);
        ++cycle;
        continue;
      }
      ++cycle;

      for (const bool is_ar : {true, false}) {
        // Fork indices derive from (cycle, is_ar, compression), so
        // disabling a family never renumbers the remaining streams.
        if (is_ar ? !mix.ar : !mix.cav) continue;
        for (const bool compression : {false, true}) {
          if (trip.finished()) break;
          auto rec = begin_record(is_ar ? AppKind::Ar : AppKind::Cav,
                                  compression);
          const std::size_t ho_base = ue.handovers().size();
          const auto cfg = is_ar ? ar_config(compression)
                                 : cav_config(compression);
          // wheels-rng: dynamic(disjoint salt per cycle/app/compression)
          const auto r = run_offload(cfg, env, app_rng.fork(cycle * 8 +
                                                            (is_ar ? 0 : 2) +
                                                            compression));
          fill_offload(rec, r, is_ar, compression);
          rec.handovers =
              static_cast<int>(ue.handovers().size() - ho_base);
          runs.push_back(std::move(rec));
          gap(gap_len);
        }
      }

      if (trip.finished()) break;
      if (mix.video) {
        auto rec = begin_record(AppKind::Video, false);
        const std::size_t ho_base = ue.handovers().size();
        const auto r = run_video(VideoConfig{}, env);
        rec.qoe = r.avg_qoe;
        rec.avg_bitrate_mbps = r.avg_bitrate_mbps;
        rec.rebuffer_fraction = r.rebuffer_fraction;
        rec.frac_high_speed_5g = r.frac_high_speed_5g;
        rec.handovers = static_cast<int>(ue.handovers().size() - ho_base);
        runs.push_back(std::move(rec));
        gap(gap_len);
      }

      if (trip.finished()) break;
      if (mix.gaming) {
        auto rec = begin_record(AppKind::Gaming, false);
        const std::size_t ho_base = ue.handovers().size();
        const auto r =
            // wheels-rng: dynamic(gaming slot 7 of the per-cycle salt block)
            run_gaming(GamingConfig{}, env, app_rng.fork(cycle * 8 + 7));
        rec.gaming_bitrate_mbps = r.median_bitrate_mbps;
        rec.gaming_latency_ms = r.mean_latency_ms;
        rec.frame_drop_rate = r.frame_drop_rate;
        rec.frac_high_speed_5g = r.frac_high_speed_5g;
        rec.handovers = static_cast<int>(ue.handovers().size() - ho_base);
        runs.push_back(std::move(rec));
        gap(gap_len);
      }
    }
  });
  return result;
}

std::vector<AppRunRecord> AppCampaign::run_static_baseline(
    OperatorId op) const {
  const scenario::AppMixSpec& mix = cfg_.spec.apps;
  const scenario::OperatorSpec& ospec =
      cfg_.spec.operators[static_cast<std::size_t>(op)];
  std::string baseline_span_name = "apps.baseline.";
  baseline_span_name += ospec.name;
  const Rng& root = world_.rng();
  // wheels-rng: dynamic(per-operator static-baseline stream)
  const Rng srng = root.fork(ospec.name).fork("static-apps");

  std::vector<std::vector<AppRunRecord>> per_city = trip::run_baseline_cities(
      world_, op, srng, ran::TrafficProfile::Interactive, baseline_span_name,
      jobs_, [&](trip::BaselineCity& bc) {
        std::vector<AppRunRecord> out;
        const Rng& city_rng = bc.rng;
        SimTime t = bc.noon;
        LinkEnv env;
        env.path_one_way = bc.server.one_way_delay;
        env.step = [&](Millis dt) {
          const auto link = bc.ue.step(t, bc.pos, Mph{0.0}, dt);
          t += dt;
          return link;
        };

        auto make_record = [&](AppKind app, bool compression) {
          AppRunRecord rec;
          rec.app = app;
          rec.compression = compression;
          rec.op = op;
          rec.start = t;
          rec.position = bc.pos;
          rec.tz = bc.tz;
          rec.server = bc.server.kind;
          return rec;
        };

        for (int rep = 0; rep < 3; ++rep) {
          for (const bool is_ar : {true, false}) {
            if (is_ar ? !mix.ar : !mix.cav) continue;
            for (const bool compression : {false, true}) {
              auto rec = make_record(is_ar ? AppKind::Ar : AppKind::Cav,
                                     compression);
              const auto cfg =
                  is_ar ? ar_config(compression) : cav_config(compression);
              const auto r = run_offload(
                  cfg, env,
                  // wheels-rng: dynamic(per-city stream, disjoint salt per rep/app)
                  city_rng.fork(rep * 8 + 2 * is_ar + compression));
              fill_offload(rec, r, is_ar, compression);
              out.push_back(std::move(rec));
            }
          }
          if (mix.video) {
            auto rec = make_record(AppKind::Video, false);
            const auto r = run_video(VideoConfig{}, env);
            rec.qoe = r.avg_qoe;
            rec.avg_bitrate_mbps = r.avg_bitrate_mbps;
            rec.rebuffer_fraction = r.rebuffer_fraction;
            rec.frac_high_speed_5g = r.frac_high_speed_5g;
            out.push_back(std::move(rec));
          }
          if (mix.gaming) {
            auto rec = make_record(AppKind::Gaming, false);
            const auto r = run_gaming(
                GamingConfig{}, env,
                // wheels-rng: dynamic(per-city gaming rep, offset past the offload salt block)
                city_rng.fork(100 + rep));
            rec.gaming_bitrate_mbps = r.median_bitrate_mbps;
            rec.gaming_latency_ms = r.mean_latency_ms;
            rec.frame_drop_rate = r.frame_drop_rate;
            rec.frac_high_speed_5g = r.frac_high_speed_5g;
            out.push_back(std::move(rec));
          }
        }
        return out;
      });

  // Concatenate the cities' records (already in route order).
  std::vector<AppRunRecord> out;
  for (std::vector<AppRunRecord>& records : per_city) {
    out.insert(out.end(), std::make_move_iterator(records.begin()),
               std::make_move_iterator(records.end()));
  }
  return out;
}

}  // namespace wheels::apps
