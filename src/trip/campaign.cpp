#include "trip/campaign.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/stats.h"
#include "core/thread_pool.h"
#include "net/ping.h"
#include "net/tcp_cubic.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "radio/phy_rate.h"
#include "ran/ue.h"
#include "trip/baseline.h"

namespace wheels::trip {
namespace {

using radio::Direction;
using radio::Tech;
using ran::OperatorId;

// Phase durations are wall-clock and scheduling-dependent, so every one of
// these is Det::WallClock; determinism tests mask them. The counters
// accumulate across campaigns in the process (bench warm-up + measured
// runs), which is exactly what the bench metrics object wants.
struct CampaignMetrics {
  obs::Counter& record_us;
  obs::Counter& replay_us;
  obs::Counter& baseline_us;
};

CampaignMetrics& campaign_metrics() {
  // wheels-lint: allow(static-local)
  static CampaignMetrics m{
      obs::Registry::global().counter("campaign.record_us",
                                      obs::Det::WallClock),
      obs::Registry::global().counter("campaign.replay_us",
                                      obs::Det::WallClock),
      obs::Registry::global().counter("campaign.baseline_us",
                                      obs::Det::WallClock),
  };
  return m;
}

// Batch preparation is wall-clock (scheduling-dependent); the slot count
// is a pure function of config + stride and must match across jobs.
struct KernelMetrics {
  obs::Counter& batch_us;
  obs::Counter& slots;
};

KernelMetrics& kernel_metrics() {
  // wheels-lint: allow(static-local)
  static KernelMetrics m{
      obs::Registry::global().counter("campaign.kernel.batch_us",
                                      obs::Det::WallClock),
      obs::Registry::global().counter("campaign.kernel.slots",
                                      obs::Det::Stable),
  };
  return m;
}

std::uint64_t elapsed_us(std::int64_t start_ns) {
  const std::int64_t d = obs::now_ns() - start_ns;
  return d > 0 ? static_cast<std::uint64_t>(d) / 1000 : 0;
}

}  // namespace

CampaignConfig CampaignConfig::from_scenario(
    const scenario::ScenarioSpec& spec, int cycle_stride) {
  scenario::validate(spec);
  CampaignConfig cfg;
  cfg.seed = spec.seed;
  cfg.cycle_stride = cycle_stride;
  cfg.spec = spec;
  return cfg;
}

// One operator's phones for one run: the test UE, the passive
// handover-logger UE, the test phone's TCP flow and ping stream, the logs
// they write, and the replay scratch (reused across every segment, so the
// hot loop allocates nothing per segment once warm).
struct Campaign::PhoneSet {
  OperatorId op;
  ran::UeSimulator test_ue;
  ran::UeSimulator passive_ue;
  net::CubicFlow flow;
  Rng rng;
  Millis passive_step_accum{0.0};
  Millis passive_log_accum{0.0};
  OperatorLogs log;
  ran::SegmentBatch batch;
  std::vector<double> window_tputs;
  std::vector<double> rtts;

  PhoneSet(OperatorId op_, const World& world, Rng r)
      : op(op_),
        test_ue(world.ue(op_, r.fork("test"), ran::TrafficProfile::Idle)),
        passive_ue(
            world.ue(op_, r.fork("passive"), ran::TrafficProfile::Idle)),
        flow(r.fork("tcp")),
        rng(r.fork("misc")) {
    log.op = op_;
  }
};

Campaign::Campaign(CampaignConfig cfg)
    : cfg_(std::move(cfg)),
      world_(cfg_.spec, cfg_.seed),
      jobs_(resolve_jobs()) {}

void Campaign::set_jobs(int jobs) { jobs_ = resolve_jobs(jobs); }

const ran::SegmentBatch& Campaign::prepare_batch(
    PhoneSet& ph, const Trajectory& traj,
    const TrajectorySegment& seg) const {
  const std::int64_t start_ns = obs::now_ns();
  const std::span<const TrajectoryPoint> points(traj.points);
  fill_batch(points.subspan(seg.begin, seg.end - seg.begin),
             world_.deployment(ph.op), world_.profile(ph.op), ph.batch);
  KernelMetrics& m = kernel_metrics();
  m.batch_us.add(elapsed_us(start_ns));
  m.slots.add(seg.end - seg.begin);
  ph.test_ue.begin_segment(ph.batch);
  return ph.batch;
}

void Campaign::step_passive(PhoneSet& ph, const TrajectoryPoint& pt, Millis dt,
                            const ran::SegmentBatch& batch,
                            std::size_t row) const {
  // The passive phone samples coarsely (its ping cadence is 200 ms) and
  // logs a technology record every second.
  ph.passive_step_accum += dt;
  ph.passive_log_accum += dt;
  if (ph.passive_step_accum.value >= 200.0) {
    const auto link =
        ph.passive_ue.step(pt.time, ph.passive_step_accum, batch, row);
    ph.passive_step_accum = Millis{0.0};
    if (ph.passive_log_accum.value >= 1'000.0) {
      ph.passive_log_accum = Millis{0.0};
      PassiveSample ps;
      ps.time = pt.time;
      ps.op = ph.op;
      ps.position = pt.position;
      ps.speed = pt.speed;
      ps.tz = pt.tz;
      ps.connected = link.connected;
      ps.tech = link.tech;
      ps.cell = link.cell;
      ph.log.passive.push_back(ps);
    }
  }
}

void Campaign::replay_bulk(PhoneSet& ph, const Trajectory& traj,
                           const TrajectorySegment& seg, TestType type) const {
  const Direction dir = type == TestType::DownlinkBulk
                            ? Direction::Downlink
                            : Direction::Uplink;
  const auto traffic = type == TestType::DownlinkBulk
                           ? ran::TrafficProfile::BackloggedDl
                           : ran::TrafficProfile::BackloggedUl;

  struct WindowAccum {
    double rsrp = 0.0, mcs = 0.0, bler = 0.0, cc = 0.0;
    double bytes = 0.0;
    int slots = 0, connected_slots = 0;
    std::array<int, 5> tech_slots{};
  };

  OperatorLogs& log = ph.log;
  ph.test_ue.set_traffic(traffic);
  ph.flow.restart();
  const auto server =
      world_.servers().select(ph.op, seg.start.position, seg.start.tz);
  const std::size_t ho_base = ph.test_ue.handovers().size();
  std::size_t ho_window_base = ho_base;
  // Scratch reuse: one 500 ms window per ~25 slots, so seg.end - seg.begin
  // bounds the sample count; no per-segment reallocation once warm.
  std::vector<double>& window_tputs = ph.window_tputs;
  window_tputs.clear();
  window_tputs.reserve(seg.end - seg.begin);
  const ran::SegmentBatch& batch = prepare_batch(ph, traj, seg);
  WindowAccum w;
  int hs5g_slots = 0;
  int total_slots = 0;
  double total_bytes = 0.0;
  Millis window_elapsed{0.0};

  const auto flush_window = [&](const TrajectoryPoint& pt) {
    KpiSample s;
    s.time = pt.time;
    s.test_id = seg.test_id;
    s.test = type;
    s.op = ph.op;
    s.position = pt.position;
    s.speed = pt.speed;
    s.tz = pt.tz;
    s.env = pt.env;
    s.connected = w.connected_slots > 0;
    if (s.connected) {
      const double n = w.connected_slots;
      s.rsrp_dbm = w.rsrp / n;
      s.mcs = w.mcs / n;
      s.bler = w.bler / n;
      s.num_cc = w.cc / n;
      const auto it =
          std::max_element(w.tech_slots.begin(), w.tech_slots.end());
      s.tech = static_cast<Tech>(it - w.tech_slots.begin());
    }
    s.tput_mbps = w.bytes * 8.0 / window_elapsed.value / 1e3;
    const auto& hos = ph.test_ue.handovers();
    s.handovers = static_cast<int>(hos.size() - ho_window_base);
    ho_window_base = hos.size();
    s.server = server.kind;
    log.kpi.push_back(s);
    window_tputs.push_back(s.tput_mbps);
    w = WindowAccum{};
    window_elapsed = Millis{0.0};
  };

  for (std::size_t j = seg.begin; j < seg.end; ++j) {
    const TrajectoryPoint& pt = traj.points[j];
    window_elapsed += seg.slot;
    step_passive(ph, pt, seg.slot, batch, j - seg.begin);

    const auto link = ph.test_ue.step(pt.time, seg.slot, batch, j - seg.begin);
    const Millis base_rtt =
        link.air_latency * 2.0 + server.one_way_delay * 2.0;
    const double bytes = ph.flow.step(seg.slot, link.phy_rate(dir), base_rtt);
    ++w.slots;
    ++total_slots;
    if (link.connected) {
      ++w.connected_slots;
      w.rsrp += link.rsrp.value;
      w.mcs += dir == Direction::Downlink ? link.mcs_dl : link.mcs_ul;
      w.bler += dir == Direction::Downlink ? link.bler_dl : link.bler_ul;
      w.cc += dir == Direction::Downlink ? link.num_cc_dl : link.num_cc_ul;
      ++w.tech_slots[static_cast<std::size_t>(link.tech)];
      if (radio::is_high_speed(link.tech)) ++hs5g_slots;
    }
    w.bytes += bytes;
    total_bytes += bytes;

    if (window_elapsed.value >= cfg_.spec.timing.sample_window_ms) {
      flush_window(pt);
    }
  }
  // A test cut short (end of route, odd durations) leaves a partial window;
  // XCAL logs it like any other period, so flush the remainder too.
  if (w.slots > 0 && window_elapsed.value > 0.0) {
    flush_window(traj.points[seg.end - 1]);
  }

  if (window_tputs.empty()) return;
  const TrajectoryPoint& end_pt =
      seg.end > seg.begin ? traj.points[seg.end - 1] : seg.start;
  RunningStats rs;
  for (double v : window_tputs) rs.add(v);
  TestSummary sum;
  sum.test_id = seg.test_id;
  sum.test = type;
  sum.op = ph.op;
  sum.start = seg.start.time;
  sum.duration =
      Millis{static_cast<double>(seg.end - seg.begin) * seg.slot.value};
  sum.start_position = seg.start.position;
  sum.distance = end_pt.position - seg.start.position;
  sum.tz = seg.start.tz;
  sum.server = server.kind;
  sum.mean = rs.mean();
  sum.stddev = rs.stddev();
  sum.samples = static_cast<int>(rs.count());
  sum.handovers = static_cast<int>(ph.test_ue.handovers().size() - ho_base);
  sum.frac_high_speed_5g =
      total_slots ? static_cast<double>(hs5g_slots) / total_slots : 0.0;
  sum.bytes_transferred = total_bytes;
  log.tests.push_back(sum);
}

void Campaign::replay_rtt(PhoneSet& ph, const Trajectory& traj,
                          const TrajectorySegment& seg) const {
  OperatorLogs& log = ph.log;
  ph.test_ue.set_traffic(ran::TrafficProfile::Idle);
  const auto server =
      world_.servers().select(ph.op, seg.start.position, seg.start.tz);
  const std::size_t ho_base = ph.test_ue.handovers().size();
  Millis since_ping{1e9};
  std::vector<double>& rtts = ph.rtts;
  rtts.clear();
  rtts.reserve(seg.end - seg.begin);
  const ran::SegmentBatch& batch = prepare_batch(ph, traj, seg);
  int hs5g_slots = 0;
  int total_slots = 0;

  for (std::size_t j = seg.begin; j < seg.end; ++j) {
    const TrajectoryPoint& pt = traj.points[j];
    step_passive(ph, pt, seg.slot, batch, j - seg.begin);

    const auto link = ph.test_ue.step(pt.time, seg.slot, batch, j - seg.begin);
    ++total_slots;
    if (link.connected && radio::is_high_speed(link.tech)) ++hs5g_slots;
    since_ping += seg.slot;
    if (since_ping.value >= cfg_.spec.timing.ping_interval_ms) {
      since_ping = Millis{0.0};
      const auto rtt = net::ping_rtt(link, server.one_way_delay, ph.rng);
      RttSample s;
      s.time = pt.time;
      s.test_id = seg.test_id;
      s.op = ph.op;
      s.position = pt.position;
      s.speed = pt.speed;
      s.tz = pt.tz;
      s.success = rtt.has_value();
      s.rtt_ms = rtt ? rtt->value : 0.0;
      s.connected = link.connected;
      s.tech = link.tech;
      s.server = server.kind;
      log.rtt.push_back(s);
      if (rtt) rtts.push_back(rtt->value);
    }
  }

  if (rtts.empty()) return;
  const TrajectoryPoint& end_pt =
      seg.end > seg.begin ? traj.points[seg.end - 1] : seg.start;
  RunningStats rs;
  for (double v : rtts) rs.add(v);
  TestSummary sum;
  sum.test_id = seg.test_id;
  sum.test = TestType::Ping;
  sum.op = ph.op;
  sum.start = seg.start.time;
  sum.duration =
      Millis{static_cast<double>(seg.end - seg.begin) * seg.slot.value};
  sum.start_position = seg.start.position;
  sum.distance = end_pt.position - seg.start.position;
  sum.tz = seg.start.tz;
  sum.server = server.kind;
  sum.mean = rs.mean();
  sum.stddev = rs.stddev();
  sum.samples = static_cast<int>(rs.count());
  sum.handovers = static_cast<int>(ph.test_ue.handovers().size() - ho_base);
  sum.frac_high_speed_5g =
      total_slots ? static_cast<double>(hs5g_slots) / total_slots : 0.0;
  log.tests.push_back(sum);
}

void Campaign::replay_idle(PhoneSet& ph, const Trajectory& traj,
                           const TrajectorySegment& seg) const {
  ph.test_ue.set_traffic(ran::TrafficProfile::Idle);
  const ran::SegmentBatch& batch = prepare_batch(ph, traj, seg);
  for (std::size_t j = seg.begin; j < seg.end; ++j) {
    const TrajectoryPoint& pt = traj.points[j];
    step_passive(ph, pt, seg.slot, batch, j - seg.begin);
    ph.test_ue.step(pt.time, seg.slot, batch, j - seg.begin);
  }
}

void Campaign::replay_operator(PhoneSet& ph, const Trajectory& traj) const {
  for (const auto& seg : traj.segments) {
    switch (seg.kind) {
      case SegmentKind::BulkDl:
        replay_bulk(ph, traj, seg, TestType::DownlinkBulk);
        break;
      case SegmentKind::BulkUl:
        replay_bulk(ph, traj, seg, TestType::UplinkBulk);
        break;
      case SegmentKind::Rtt:
        replay_rtt(ph, traj, seg);
        break;
      case SegmentKind::Gap:
      case SegmentKind::FastForward:
        replay_idle(ph, traj, seg);
        break;
    }
  }
}

CampaignResult Campaign::run() const {
  // Phase 1 (sequential, cheap): drive the route once, recording the
  // schedule. Phase 2 (parallel): each operator builds its phones and
  // replays the recording on its own worker, touching only its own RNG
  // streams and its own logs slot.
  const Rng& root = world_.rng();
  const std::int64_t record_start = obs::now_ns();
  const Trajectory traj = [&] {
    const obs::Span span("campaign.record");
    TripSimulator trip(world_.route(), world_.corridor(), root.fork("trip"),
                       drive_from_spec(cfg_.spec));
    return record_trajectory(trip, world_.corridor(), cfg_);
  }();
  campaign_metrics().record_us.add(elapsed_us(record_start));

  CampaignResult result;
  const std::int64_t replay_start = obs::now_ns();
  parallel_for_each(jobs_, ran::kAllOperators.size(), [&](std::size_t i) {
    const scenario::OperatorSpec& ospec = cfg_.spec.operators[i];
    std::string span_name = "campaign.replay.";
    span_name += ospec.name;
    const obs::Span span(span_name);
    PhoneSet ph(ran::kAllOperators[i], world_,
                // wheels-rng: dynamic(per-operator phone-set stream)
                root.fork(ospec.name).fork("ue"));
    replay_operator(ph, traj);

    OperatorLogs& log = ph.log;
    log.test_handovers = ph.test_ue.handovers();
    log.passive_handovers = ph.passive_ue.handovers();
    // Unique cells across both phones of this operator.
    std::vector<ran::CellId> cells = ph.test_ue.seen_cells();
    const auto& pc = ph.passive_ue.seen_cells();
    cells.insert(cells.end(), pc.begin(), pc.end());
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
    log.unique_cells = cells.size();
    log.experiment_runtime = traj.total_drive_time;
    result.logs[i] = std::move(log);
  });
  campaign_metrics().replay_us.add(elapsed_us(replay_start));

  result.route_length = world_.route().length();
  result.days = traj.days;
  result.drive_time = traj.total_drive_time;
  return result;
}

StaticBaseline Campaign::run_static_baseline(OperatorId op) const {
  const std::int64_t baseline_start = obs::now_ns();
  const std::string& op_name =
      cfg_.spec.operators[static_cast<std::size_t>(op)].name;
  std::string baseline_span_name = "campaign.baseline.";
  baseline_span_name += op_name;
  const obs::Span baseline_span(baseline_span_name);

  const scenario::TimingSpec& timing = cfg_.spec.timing;
  const Millis slot{timing.slot_ms};
  const Rng& root = world_.rng();
  // wheels-rng: dynamic(per-operator static-baseline stream)
  const Rng base = root.fork("static").fork(op_name);

  struct CityRun {
    std::vector<double> dl, ul, rtt;
  };
  const std::vector<CityRun> runs = run_baseline_cities(
      world_, op, base, ran::TrafficProfile::BackloggedDl,
      baseline_span_name, jobs_, [&](BaselineCity& bc) {
        CityRun cr;
        ran::UeSimulator& ue = bc.ue;
        const Rng& city_rng = bc.rng;
        net::CubicFlow flow(city_rng.fork("tcp"));
        Rng ping_rng = city_rng.fork("ping");
        SimTime t = bc.noon;

        auto run_bulk = [&](Direction dir, std::vector<double>& sink) {
          ue.set_traffic(dir == Direction::Downlink
                             ? ran::TrafficProfile::BackloggedDl
                             : ran::TrafficProfile::BackloggedUl);
          flow.restart();
          double window_bytes = 0.0;
          Millis win{0.0};
          for (Millis el{0.0}; el.value < timing.tput_test_ms; el += slot) {
            const auto link = ue.step(t, bc.pos, Mph{0.0}, slot);
            t += slot;
            const Millis base_rtt =
                link.air_latency * 2.0 + bc.server.one_way_delay * 2.0;
            window_bytes += flow.step(slot, link.phy_rate(dir), base_rtt);
            win += slot;
            if (win.value >= timing.sample_window_ms) {
              sink.push_back(window_bytes * 8.0 / win.value / 1e3);
              window_bytes = 0.0;
              win = Millis{0.0};
            }
          }
        };
        run_bulk(Direction::Downlink, cr.dl);
        run_bulk(Direction::Uplink, cr.ul);

        // RTT test (light ICMP traffic).
        ue.set_traffic(ran::TrafficProfile::Idle);
        Millis since_ping{1e9};
        for (Millis el{0.0}; el.value < timing.rtt_test_ms; el += slot) {
          const auto link = ue.step(t, bc.pos, Mph{0.0}, slot);
          t += slot;
          since_ping += slot;
          if (since_ping.value >= timing.ping_interval_ms) {
            since_ping = Millis{0.0};
            if (const auto rtt = net::ping_rtt(
                    link, bc.server.one_way_delay, ping_rng)) {
              cr.rtt.push_back(rtt->value);
            }
          }
        }
        return cr;
      });

  StaticBaseline out;
  out.op = op;
  out.cities_tested = static_cast<int>(runs.size());
  for (const CityRun& cr : runs) {
    out.dl_tput_mbps.insert(out.dl_tput_mbps.end(), cr.dl.begin(),
                            cr.dl.end());
    out.ul_tput_mbps.insert(out.ul_tput_mbps.end(), cr.ul.begin(),
                            cr.ul.end());
    out.rtt_ms.insert(out.rtt_ms.end(), cr.rtt.begin(), cr.rtt.end());
  }
  campaign_metrics().baseline_us.add(elapsed_us(baseline_start));
  return out;
}

}  // namespace wheels::trip
