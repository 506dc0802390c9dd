// wheels_loadgen: replayable load generator for wheels_served.
//
// Drives the daemon through a seeded, scripted schedule in three phases --
// cold (one miss, one simulation), herd (N clients hammer one cold
// fingerprint; single-flight must simulate exactly once and every client
// must receive byte-identical response frames), hot (a warm-cache request
// mix measured for qps and p50/p99 latency) -- and emits the
// BENCH_serve.json summary. With --probe it first sends every class of
// malformed frame and verifies the typed error responses. Exit 0 only if
// all phase assertions hold, so CI can use it as the serve smoke check.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

#include "core/json_text.h"
#include "core/rng.h"
#include "core/stats.h"
#include "obs/clock.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace {

using namespace wheels;

int usage(std::ostream& os, int code) {
  os << "usage: wheels_loadgen --socket PATH [options]\n"
        "\n"
        "options:\n"
        "  --socket PATH    daemon AF_UNIX socket to drive\n"
        "  --scenario S     scenario the queries select (default urban-loop)\n"
        "  --stride N       dataset cycle stride (default 64)\n"
        "  --seed N         base dataset seed; cold uses N, herd N+1\n"
        "                   (default 42)\n"
        "  --clients N      concurrent clients for herd + hot (default 8)\n"
        "  --requests M     hot-phase requests per client (default 25)\n"
        "  --schedule-seed N  seed of the scripted request mix (default 7)\n"
        "  --out PATH       write the JSON summary there (default stdout)\n"
        "  --probe          malformed-frame probes before the phases\n"
        "  --shutdown       send Shutdown once done\n";
  return code;
}

long parse_long_or_exit(const std::string& text, const char* opt) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0' || v < 0) {
    std::cerr << "wheels_loadgen: invalid value '" << text << "' for " << opt
              << "\n";
    std::exit(2);
  }
  return v;
}

struct Options {
  std::string socket_path;
  std::string scenario = "urban-loop";
  std::uint32_t stride = 64;
  std::uint64_t seed = 42;
  int clients = 8;
  int requests = 25;
  std::uint64_t schedule_seed = 7;
  std::string out_path;
  bool probe = false;
  bool shutdown = false;
};

serve::DatasetSelector selector(const Options& o, std::uint64_t seed) {
  serve::DatasetSelector sel;
  sel.scenario = o.scenario;
  sel.has_seed = true;
  sel.seed = seed;
  sel.stride = o.stride;
  return sel;
}

serve::KpiQuery kpi_query(const Options& o, std::uint64_t seed,
                          std::uint8_t test) {
  serve::KpiQuery q;
  q.dataset = selector(o, seed);
  q.op = 0;
  q.test = test;
  return q;
}

bool fetch_stats(const Options& o, serve::StatsReply& out) {
  serve::Client c;
  if (!c.connect(o.socket_path)) return false;
  const auto reply = c.call(serve::Request{serve::StatsRequest{}});
  if (!reply || !std::holds_alternative<serve::StatsReply>(reply->second))
    return false;
  out = std::get<serve::StatsReply>(reply->second);
  return true;
}

int failures = 0;

void check(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "[loadgen] FAIL: %s\n", what);
}

// ---- Probe phase -----------------------------------------------------------

bool expect_error(serve::Client& c, serve::ErrorCode want, const char* what) {
  const auto reply = c.read_reply();
  if (!reply || !std::holds_alternative<serve::ErrorReply>(reply->second)) {
    std::fprintf(stderr, "[loadgen] probe '%s': no error reply\n", what);
    return false;
  }
  const auto& err = std::get<serve::ErrorReply>(reply->second);
  if (err.code != want) {
    std::fprintf(stderr, "[loadgen] probe '%s': got %s\n", what,
                 serve::to_string(err.code));
    return false;
  }
  return true;
}

bool run_probes(const Options& o) {
  bool ok = true;
  {
    serve::Client c;
    ok = ok && c.connect(o.socket_path);
    std::string frame = "XWSV";
    frame.append(4, '\0');
    ok = ok && c.send_raw(frame) &&
         expect_error(c, serve::ErrorCode::BadMagic, "bad magic");
  }
  {
    serve::Client c;
    ok = ok && c.connect(o.socket_path);
    std::string frame = "WSV1";
    frame.append(4, '\xff');  // body length 0xffffffff
    ok = ok && c.send_raw(frame) &&
         expect_error(c, serve::ErrorCode::Oversize, "oversize");
  }
  {
    serve::Client c;
    ok = ok && c.connect(o.socket_path);
    // Header promises 16 body bytes; deliver 3 and half-close.
    std::string frame = "WSV1";
    frame += '\x10';
    frame.append(3, '\0');
    frame.append(3, '\x01');
    if (ok && c.send_raw(frame)) {
      c.shutdown_writes();
      ok = expect_error(c, serve::ErrorCode::Truncated, "truncated");
    } else {
      ok = false;
    }
  }
  {
    serve::Client c;
    ok = ok && c.connect(o.socket_path);
    const std::string body(1, '\x63');  // tag 99: no such query kind
    ok = ok && c.send_raw(serve::wrap_frame(body)) &&
         expect_error(c, serve::ErrorCode::UnknownKind, "unknown kind");
  }
  {
    // Truncated payload within a well-formed frame: kpi tag, no selector.
    serve::Client c;
    ok = ok && c.connect(o.socket_path);
    const std::string body(1, '\x02');
    ok = ok && c.send_raw(serve::wrap_frame(body)) &&
         expect_error(c, serve::ErrorCode::BadPayload, "bad payload");
  }
  return ok;
}

// ---- Herd phase ------------------------------------------------------------

struct HerdResult {
  double wall_ms = 0.0;
  bool byte_identical = false;
  int answered = 0;
};

HerdResult run_herd(const Options& o) {
  HerdResult res;
  const serve::Request req{kpi_query(o, o.seed + 1, 0)};
  std::vector<serve::Client> clients(static_cast<std::size_t>(o.clients));
  for (auto& c : clients) {
    if (!c.connect(o.socket_path)) {
      check(false, "herd client connect");
      return res;
    }
  }
  std::mutex mu;
  std::condition_variable cv;
  int ready = 0;
  bool go = false;
  std::vector<std::string> responses(clients.size());
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  const std::int64_t t0 = obs::now_ns();
  for (std::size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      {
        std::unique_lock<std::mutex> lock(mu);
        ++ready;
        cv.notify_all();
        cv.wait(lock, [&] { return go; });
      }
      const auto reply = clients[i].call(req);
      if (reply) responses[i] = clients[i].last_reply_bytes();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ready == o.clients; });
    go = true;
    cv.notify_all();
  }
  for (auto& t : threads) t.join();
  res.wall_ms =
      static_cast<double>(obs::now_ns() - t0) / 1e6;
  res.byte_identical = true;
  for (const std::string& r : responses) {
    if (!r.empty()) ++res.answered;
    if (r != responses[0]) res.byte_identical = false;
  }
  if (responses[0].empty()) res.byte_identical = false;
  return res;
}

// ---- Hot phase -------------------------------------------------------------

struct HotResult {
  int requests = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

HotResult run_hot(const Options& o) {
  HotResult res;
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(o.clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(o.clients));
  std::atomic<int> errors{0};
  const std::int64_t t0 = obs::now_ns();
  for (int i = 0; i < o.clients; ++i) {
    threads.emplace_back([&, i] {
      // One deterministic schedule per client: the run is replayable from
      // (schedule seed, client index) alone.
      Rng rng = Rng(o.schedule_seed).fork(static_cast<std::uint64_t>(i));
      serve::Client c;
      if (!c.connect(o.socket_path)) {
        errors.fetch_add(1);
        return;
      }
      for (int k = 0; k < o.requests; ++k) {
        const std::uint64_t seed =
            o.seed + (rng.uniform() < 0.5 ? 0 : 1);
        const std::uint64_t pick = rng.uniform_index(5);
        serve::Request req{serve::PingRequest{}};
        if (pick < 3) {
          req = kpi_query(o, seed, static_cast<std::uint8_t>(pick));
        } else if (pick == 3) {
          serve::RegionSliceQuery q;
          q.dataset = selector(o, seed);
          q.test = 0;
          req = q;
        } else {
          req = serve::PingRequest{k * 1000ull + static_cast<unsigned>(i)};
        }
        const std::int64_t q0 = obs::now_ns();
        const auto reply = c.call(req);
        const std::int64_t q1 = obs::now_ns();
        if (!reply || std::holds_alternative<serve::ErrorReply>(reply->second))
          errors.fetch_add(1);
        latencies[static_cast<std::size_t>(i)].push_back(
            static_cast<double>(q1 - q0) / 1e6);
      }
    });
  }
  for (auto& t : threads) t.join();
  res.wall_ms = static_cast<double>(obs::now_ns() - t0) / 1e6;
  std::vector<double> all;
  for (const auto& per_client : latencies)
    all.insert(all.end(), per_client.begin(), per_client.end());
  std::sort(all.begin(), all.end());
  res.requests = static_cast<int>(all.size());
  if (!all.empty() && res.wall_ms > 0.0) {
    res.qps = static_cast<double>(all.size()) / (res.wall_ms / 1e3);
    res.p50_ms = percentile(all, 50.0);
    res.p99_ms = percentile(all, 99.0);
  }
  check(errors.load() == 0, "hot phase requests all answered");
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "wheels_loadgen: missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "-h" || arg == "--help") return usage(std::cout, 0);
    if (arg == "--socket") {
      o.socket_path = value();
    } else if (arg == "--scenario") {
      o.scenario = value();
    } else if (arg == "--stride") {
      o.stride =
          static_cast<std::uint32_t>(parse_long_or_exit(value(), "--stride"));
    } else if (arg == "--seed") {
      o.seed = static_cast<std::uint64_t>(parse_long_or_exit(value(), "--seed"));
    } else if (arg == "--clients") {
      o.clients = static_cast<int>(parse_long_or_exit(value(), "--clients"));
    } else if (arg == "--requests") {
      o.requests = static_cast<int>(parse_long_or_exit(value(), "--requests"));
    } else if (arg == "--schedule-seed") {
      o.schedule_seed = static_cast<std::uint64_t>(
          parse_long_or_exit(value(), "--schedule-seed"));
    } else if (arg == "--out") {
      o.out_path = value();
    } else if (arg == "--probe") {
      o.probe = true;
    } else if (arg == "--shutdown") {
      o.shutdown = true;
    } else {
      std::cerr << "wheels_loadgen: unknown argument '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
  }
  if (o.socket_path.empty()) {
    std::cerr << "wheels_loadgen: need --socket PATH\n";
    return usage(std::cerr, 2);
  }
  if (o.scenario.size() > serve::kMaxNameBytes) {
    std::cerr << "wheels_loadgen: --scenario must be at most "
              << serve::kMaxNameBytes << " bytes\n";
    return usage(std::cerr, 2);
  }
  if (o.clients < 1 || o.stride == 0) {
    std::cerr << "wheels_loadgen: need --clients >= 1 and --stride >= 1\n";
    return 2;
  }

  bool probes_ok = true;
  if (o.probe) {
    probes_ok = run_probes(o);
    check(probes_ok, "malformed-frame probes");
  }

  // Cold phase: one client, one miss (a simulation unless the daemon's
  // disk cache is already warm for this selector).
  serve::StatsReply before;
  check(fetch_stats(o, before), "stats before");
  double cold_ms = 0.0;
  {
    serve::Client c;
    check(c.connect(o.socket_path), "cold client connect");
    const std::int64_t t0 = obs::now_ns();
    const auto reply = c.call(serve::Request{kpi_query(o, o.seed, 0)});
    cold_ms = static_cast<double>(obs::now_ns() - t0) / 1e6;
    check(reply.has_value() &&
              std::holds_alternative<serve::KpiReply>(reply->second),
          "cold query answered");
  }
  serve::StatsReply after_cold;
  check(fetch_stats(o, after_cold), "stats after cold");

  // Herd phase: every client asks for one cold fingerprint at once.
  const HerdResult herd = run_herd(o);
  serve::StatsReply after_herd;
  check(fetch_stats(o, after_herd), "stats after herd");
  const std::uint64_t herd_sims =
      after_herd.campaign_simulations - after_cold.campaign_simulations;
  const std::uint64_t herd_joins =
      after_herd.inflight_joins - after_cold.inflight_joins;
  check(herd.answered == o.clients, "herd: every client answered");
  check(herd.byte_identical, "herd: responses byte-identical");
  const bool herd_cold = after_herd.disk_hits == after_cold.disk_hits;
  if (herd_cold) {
    check(herd_sims == 1, "herd: exactly one simulation");
    if (o.clients >= 2)
      check(herd_joins >= static_cast<std::uint64_t>(o.clients - 1),
            "herd: waiters joined the flight");
  }

  // Hot phase: warm-cache mixed schedule.
  const HotResult hot = run_hot(o);
  serve::StatsReply final_stats;
  check(fetch_stats(o, final_stats), "stats final");

  if (o.shutdown) {
    serve::Client c;
    if (c.connect(o.socket_path)) {
      const auto reply = c.call(serve::Request{serve::ShutdownRequest{}});
      check(reply.has_value() &&
                std::holds_alternative<serve::ShutdownReply>(reply->second),
            "shutdown acknowledged");
    } else {
      check(false, "shutdown connect");
    }
  }

  const double hit_ratio =
      final_stats.store_hits + final_stats.store_misses > 0
          ? static_cast<double>(final_stats.store_hits) /
                static_cast<double>(final_stats.store_hits +
                                    final_stats.store_misses)
          : 0.0;

  std::FILE* out = stdout;
  if (!o.out_path.empty()) {
    out = std::fopen(o.out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "wheels_loadgen: cannot write %s\n",
                   o.out_path.c_str());
      return 1;
    }
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"serve\",\n");
  std::string scenario;
  append_json_string(scenario, o.scenario);
  std::fprintf(out, "  \"scenario\": %s,\n", scenario.c_str());
  std::fprintf(out, "  \"stride\": %u,\n", o.stride);
  std::fprintf(out, "  \"clients\": %d,\n", o.clients);
  std::fprintf(out, "  \"requests_per_client\": %d,\n", o.requests);
  std::fprintf(out, "  \"schedule_seed\": %llu,\n",
               static_cast<unsigned long long>(o.schedule_seed));
  std::fprintf(out, "  \"probes\": \"%s\",\n",
               o.probe ? (probes_ok ? "ok" : "failed") : "skipped");
  std::fprintf(out, "  \"cold\": {\"latency_ms\": %.3f, \"simulations\": %llu},\n",
               cold_ms,
               static_cast<unsigned long long>(
                   after_cold.campaign_simulations -
                   before.campaign_simulations));
  std::fprintf(out,
               "  \"herd\": {\"clients\": %d, \"wall_ms\": %.3f, "
               "\"simulations\": %llu, \"inflight_joins\": %llu, "
               "\"byte_identical\": %s},\n",
               o.clients, herd.wall_ms,
               static_cast<unsigned long long>(herd_sims),
               static_cast<unsigned long long>(herd_joins),
               herd.byte_identical ? "true" : "false");
  std::fprintf(out,
               "  \"hot\": {\"requests\": %d, \"wall_ms\": %.3f, "
               "\"qps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f},\n",
               hot.requests, hot.wall_ms, hot.qps, hot.p50_ms, hot.p99_ms);
  std::fprintf(out,
               "  \"store\": {\"hits\": %llu, \"misses\": %llu, "
               "\"evictions\": %llu, \"hit_ratio\": %.4f},\n",
               static_cast<unsigned long long>(final_stats.store_hits),
               static_cast<unsigned long long>(final_stats.store_misses),
               static_cast<unsigned long long>(final_stats.store_evictions),
               hit_ratio);
  std::fprintf(out, "  \"failures\": %d\n", failures);
  std::fprintf(out, "}\n");
  if (out != stdout) std::fclose(out);

  return failures == 0 ? 0 : 1;
}
