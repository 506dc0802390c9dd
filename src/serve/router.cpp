#include "serve/router.h"

#include <array>
#include <cstdlib>
#include <exception>
#include <limits>
#include <vector>

#include "analysis/performance.h"
#include "core/stats.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "scenario/spec.h"

namespace wheels::serve {
namespace {

long long resolve_max_frame(long long requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("WHEELS_SERVE_MAX_FRAME")) {
    const long long v = std::atoll(env);
    if (v > 0) return v;
  }
  return static_cast<long long>(kDefaultMaxFrameBytes);
}

// Request counters are Det::Stable (a pure function of the request
// stream); latency histograms are Det::WallClock by construction.
struct ServeMetrics {
  obs::Counter& requests;
  obs::Counter& errors;
  obs::Histogram& lat_ping;
  obs::Histogram& lat_kpi;
  obs::Histogram& lat_region;
  obs::Histogram& lat_app_qoe;
  obs::Histogram& lat_stats;
  obs::Histogram& lat_shutdown;
  obs::Histogram& lat_other;
};

ServeMetrics& serve_metrics() {
  const std::vector<std::int64_t> us_bounds = {
      100,    300,    1000,    3000,    10000,   30000,
      100000, 300000, 1000000, 3000000, 10000000};
  auto lat = [&](const char* name) -> obs::Histogram& {
    return obs::Registry::global().histogram(name, us_bounds,
                                             obs::Det::WallClock);
  };
  // wheels-lint: allow(static-local)
  static ServeMetrics m{
      obs::Registry::global().counter("serve.requests"),
      obs::Registry::global().counter("serve.errors"),
      lat("serve.latency_us.ping"),
      lat("serve.latency_us.kpi"),
      lat("serve.latency_us.region"),
      lat("serve.latency_us.app_qoe"),
      lat("serve.latency_us.stats"),
      lat("serve.latency_us.shutdown"),
      lat("serve.latency_us.other"),
  };
  return m;
}

obs::Histogram& latency_for(std::uint8_t kind) {
  ServeMetrics& m = serve_metrics();
  switch (static_cast<QueryKind>(kind)) {
    case QueryKind::Ping: return m.lat_ping;
    case QueryKind::KpiPercentiles: return m.lat_kpi;
    case QueryKind::RegionSlice: return m.lat_region;
    case QueryKind::AppQoe: return m.lat_app_qoe;
    case QueryKind::Stats: return m.lat_stats;
    case QueryKind::Shutdown: return m.lat_shutdown;
  }
  return m.lat_other;
}

// Resolve the selector's scenario (library name or JSON path), apply the
// seed override and validate the result. False + message on unknown or
// invalid scenarios, an out-of-range seed included.
bool try_resolve_spec(const DatasetSelector& sel, scenario::ScenarioSpec& spec,
                      std::string& err) {
  try {
    spec = scenario::load_scenario(sel.scenario);
    if (sel.has_seed) {
      spec.seed = sel.seed;
      scenario::validate(spec);
    }
  } catch (const std::exception& e) {
    err = e.what();
    return false;
  }
  return true;
}

// KPI sample extraction shared by the kpi and region queries.
std::vector<double> kpi_samples(const trip::OperatorLogs& logs,
                                std::uint8_t test, analysis::PerfFilter f) {
  if (test == 2) return analysis::rtt_samples(logs.rtt, f);
  f.test = test == 0 ? trip::TestType::DownlinkBulk
                     : trip::TestType::UplinkBulk;
  return analysis::tput_samples(logs.kpi, f);
}

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const double v : xs) sum += v;
  return sum / static_cast<double>(xs.size());
}

}  // namespace

Router::Router(RouterOptions opts)
    : max_frame_bytes_(
          static_cast<std::size_t>(resolve_max_frame(opts.max_frame_bytes))),
      store_(std::move(opts.store)) {}

Reply Router::run_kpi(const KpiQuery& q) {
  scenario::ScenarioSpec spec;
  std::string err;
  if (!try_resolve_spec(q.dataset, spec, err))
    return ErrorReply{ErrorCode::BadScenario, err};
  const trip::CampaignConfig cfg = trip::CampaignConfig::from_scenario(
      spec, static_cast<int>(q.dataset.stride));
  const auto res = store_.campaign(cfg);
  const trip::OperatorLogs& logs =
      res->for_op(static_cast<ran::OperatorId>(q.op));
  analysis::PerfFilter f;
  if (q.tz != 255) f.tz = static_cast<TimeZone>(q.tz);
  f.min_mph = q.min_mph;
  f.max_mph = q.max_mph;
  const std::vector<double> xs = kpi_samples(logs, q.test, f);
  KpiReply k;
  k.count = xs.size();
  k.mean = mean_of(xs);
  double pct[4];
  percentiles(xs, std::array{10.0, 50.0, 90.0, 99.0}, pct);
  k.p10 = pct[0];
  k.p50 = pct[1];
  k.p90 = pct[2];
  k.p99 = pct[3];
  return k;
}

Reply Router::run_region(const RegionSliceQuery& q) {
  scenario::ScenarioSpec spec;
  std::string err;
  if (!try_resolve_spec(q.dataset, spec, err))
    return ErrorReply{ErrorCode::BadScenario, err};
  const trip::CampaignConfig cfg = trip::CampaignConfig::from_scenario(
      spec, static_cast<int>(q.dataset.stride));
  const auto res = store_.campaign(cfg);
  const trip::OperatorLogs& logs =
      res->for_op(static_cast<ran::OperatorId>(q.op));
  RegionReply rr;
  // Fixed west-to-east TimeZone order: the reply shape never depends on
  // which zones happen to hold samples.
  for (std::uint8_t tz = 0; tz < 4; ++tz) {
    analysis::PerfFilter f;
    f.tz = static_cast<TimeZone>(tz);
    const std::vector<double> xs = kpi_samples(logs, q.test, f);
    RegionRow row;
    row.tz = tz;
    row.count = xs.size();
    double pct[2];
    percentiles(xs, std::array{50.0, 90.0}, pct);
    row.median = pct[0];
    row.p90 = pct[1];
    rr.rows.push_back(row);
  }
  return rr;
}

Reply Router::run_app_qoe(const AppQoeQuery& q) {
  scenario::ScenarioSpec spec;
  std::string err;
  if (!try_resolve_spec(q.dataset, spec, err))
    return ErrorReply{ErrorCode::BadScenario, err};
  const apps::AppCampaignConfig cfg = apps::AppCampaignConfig::from_scenario(
      spec, static_cast<int>(q.dataset.stride));
  const auto res = store_.apps(cfg);
  const std::vector<apps::AppRunRecord>& runs =
      res->for_op(static_cast<ran::OperatorId>(q.op));
  struct RowSpec {
    apps::AppKind app;
    bool compression;
  };
  constexpr RowSpec kRows[] = {
      {apps::AppKind::Ar, false},  {apps::AppKind::Ar, true},
      {apps::AppKind::Cav, false}, {apps::AppKind::Cav, true},
      {apps::AppKind::Video, false}, {apps::AppKind::Gaming, false}};
  AppQoeReply reply;
  for (const RowSpec& rs : kRows) {
    AppQoeRow row;
    row.app = static_cast<std::uint8_t>(rs.app);
    row.compression = rs.compression ? 1 : 0;
    double s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (const apps::AppRunRecord& rec : runs) {
      if (rec.app != rs.app || rec.compression != rs.compression) continue;
      row.count += 1;
      switch (rs.app) {
        case apps::AppKind::Ar:
          s1 += rec.mean_e2e_ms;
          s2 += rec.offloaded_fps;
          s3 += rec.map;
          break;
        case apps::AppKind::Cav:
          s1 += rec.mean_e2e_ms;
          s2 += rec.offloaded_fps;
          break;
        case apps::AppKind::Video:
          s1 += rec.qoe;
          s2 += rec.avg_bitrate_mbps;
          s3 += rec.rebuffer_fraction;
          break;
        case apps::AppKind::Gaming:
          s1 += rec.gaming_latency_ms;
          s2 += rec.gaming_bitrate_mbps;
          s3 += rec.frame_drop_rate;
          break;
      }
    }
    if (row.count > 0) {
      const double n = static_cast<double>(row.count);
      row.m1 = s1 / n;
      row.m2 = s2 / n;
      row.m3 = s3 / n;
    }
    reply.rows.push_back(row);
  }
  return reply;
}

Reply Router::dispatch(const Request& req) {
  struct Visitor {
    Router& r;
    Reply operator()(const PingRequest& q) { return PongReply{q.token}; }
    Reply operator()(const KpiQuery& q) { return r.run_kpi(q); }
    Reply operator()(const RegionSliceQuery& q) { return r.run_region(q); }
    Reply operator()(const AppQoeQuery& q) { return r.run_app_qoe(q); }
    Reply operator()(const StatsRequest&) { return r.stats(); }
    Reply operator()(const ShutdownRequest&) {
      r.shutdown_.store(true, std::memory_order_release);
      return ShutdownReply{};
    }
  };
  try {
    return std::visit(Visitor{*this}, req);
  } catch (const std::exception& e) {
    return ErrorReply{ErrorCode::Internal, e.what()};
  }
}

std::string Router::handle(std::string_view body, SessionState& session) {
  const std::int64_t t0 = obs::now_ns();
  requests_.fetch_add(1, std::memory_order_relaxed);
  serve_metrics().requests.inc();
  session.requests += 1;
  session.bytes_in += body.size() + kFrameHeaderBytes;

  Request req;
  const DecodeStatus st = decode_request(body, req);
  std::uint8_t kind =
      body.empty() ? 0 : static_cast<std::uint8_t>(body.front());
  Reply reply;
  if (st == DecodeStatus::UnknownKind) {
    reply = ErrorReply{ErrorCode::UnknownKind, "unknown query kind"};
  } else if (st == DecodeStatus::Malformed) {
    reply = ErrorReply{ErrorCode::BadPayload, "malformed request payload"};
  } else {
    kind = static_cast<std::uint8_t>(kind_of(req));
    reply = dispatch(req);
  }
  if (std::holds_alternative<ErrorReply>(reply)) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    serve_metrics().errors.inc();
    session.errors += 1;
  }

  std::string frame = wrap_frame(encode_reply(kind, reply));
  session.bytes_out += frame.size();
  session.last_kind = kind;
  latency_for(kind).observe((obs::now_ns() - t0) / 1000);
  return frame;
}

std::string Router::error_frame(ErrorCode code, std::string_view message,
                                SessionState& session) {
  errors_.fetch_add(1, std::memory_order_relaxed);
  serve_metrics().errors.inc();
  session.errors += 1;
  std::string frame =
      wrap_frame(encode_reply(0, ErrorReply{code, std::string(message)}));
  session.bytes_out += frame.size();
  return frame;
}

StatsReply Router::stats() const {
  StatsReply s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.sessions = sessions_.load(std::memory_order_relaxed);
  s.store_hits = static_cast<std::uint64_t>(store_.hits());
  s.store_misses = static_cast<std::uint64_t>(store_.misses());
  s.store_evictions = static_cast<std::uint64_t>(store_.evictions());
  s.store_resident = store_.resident();
  s.store_capacity = static_cast<std::uint64_t>(store_.capacity());
  const dataset::CampaignProvider& p = store_.provider();
  s.inflight_leaders = static_cast<std::uint64_t>(p.inflight_leaders());
  s.inflight_joins = static_cast<std::uint64_t>(p.inflight_joins());
  s.campaign_simulations =
      static_cast<std::uint64_t>(p.campaign_simulations());
  s.baseline_simulations =
      static_cast<std::uint64_t>(p.baseline_simulations());
  s.disk_hits = static_cast<std::uint64_t>(p.disk_hits());
  return s;
}

}  // namespace wheels::serve
