// Serve-layer tests: wire protocol round-trips and malformed-frame
// rejection, router error taxonomy, LRU store bounds, cross-request
// single-flight (a thundering herd on one cold fingerprint simulates
// exactly once), byte-identical responses across jobs counts and request
// interleavings, and the daemon transport end-to-end over an AF_UNIX
// socket. The concurrent suites (ServeSingleFlight.*, ServeStore.Concurrent*,
// ServeDaemon.ConcurrentPings) also run under the tsan-parallel preset.
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/singleflight.h"
#include "dataset/fingerprint.h"
#include "scenario/spec.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/store.h"
#include "trip/campaign.h"

namespace wheels::serve {
namespace {

// A selector the expensive suites share: urban-loop at a sparse stride so
// a full campaign resolves in well under a second even under tsan.
DatasetSelector fast_selector(std::uint64_t seed) {
  DatasetSelector sel;
  sel.scenario = "urban-loop";
  sel.has_seed = true;
  sel.seed = seed;
  sel.stride = 1024;
  return sel;
}

trip::CampaignConfig fast_config(std::uint64_t seed) {
  scenario::ScenarioSpec spec = scenario::load_scenario("urban-loop");
  spec.seed = seed;
  return trip::CampaignConfig::from_scenario(spec, 1024);
}

// Strip + validate the frame header of a response and decode the body.
std::pair<std::uint8_t, Reply> unwrap(const std::string& frame) {
  std::uint32_t body_len = 0;
  EXPECT_EQ(peek_frame(frame, kDefaultMaxFrameBytes, body_len),
            FrameStatus::Ok);
  EXPECT_EQ(frame.size(), kFrameHeaderBytes + body_len);
  std::uint8_t kind = 0;
  Reply reply;
  EXPECT_TRUE(decode_reply(
      std::string_view(frame).substr(kFrameHeaderBytes, body_len), kind,
      reply));
  return {kind, reply};
}

RouterOptions hermetic_router_options() {
  RouterOptions opts;
  opts.store.provider.use_cache = false;  // no disk traffic from tests
  return opts;
}

// ---- Protocol --------------------------------------------------------------

TEST(ServeProtocol, FrameRoundTrip) {
  const std::string frame = wrap_frame("hello");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 5);
  EXPECT_EQ(frame.substr(0, 4), kFrameMagic);
  std::uint32_t body_len = 0;
  EXPECT_EQ(peek_frame(frame, kDefaultMaxFrameBytes, body_len),
            FrameStatus::Ok);
  EXPECT_EQ(body_len, 5u);
  EXPECT_EQ(frame.substr(kFrameHeaderBytes), "hello");
}

TEST(ServeProtocol, PeekNeedsFullHeader) {
  const std::string frame = wrap_frame("x");
  std::uint32_t body_len = 0;
  for (std::size_t n = 0; n < kFrameHeaderBytes; ++n) {
    EXPECT_EQ(peek_frame(std::string_view(frame).substr(0, n),
                         kDefaultMaxFrameBytes, body_len),
              FrameStatus::NeedMore)
        << "header prefix of " << n << " bytes";
  }
}

TEST(ServeProtocol, PeekRejectsBadMagic) {
  std::string frame = wrap_frame("x");
  frame[0] = 'X';
  std::uint32_t body_len = 0;
  EXPECT_EQ(peek_frame(frame, kDefaultMaxFrameBytes, body_len),
            FrameStatus::BadMagic);
}

TEST(ServeProtocol, PeekRejectsOversize) {
  const std::string frame = wrap_frame(std::string(64, 'a'));
  std::uint32_t body_len = 0;
  EXPECT_EQ(peek_frame(frame, 63, body_len), FrameStatus::Oversize);
  EXPECT_EQ(peek_frame(frame, 64, body_len), FrameStatus::Ok);
}

std::vector<Request> all_request_kinds() {
  KpiQuery kpi;
  kpi.dataset = fast_selector(7);
  kpi.op = 1;
  kpi.test = 2;
  kpi.tz = 3;
  kpi.min_mph = 25.0;
  kpi.max_mph = 70.0;
  RegionSliceQuery region;
  region.dataset.scenario = "paper-default";
  region.op = 2;
  region.test = 1;
  AppQoeQuery qoe;
  qoe.dataset = fast_selector(11);
  qoe.op = 0;
  return {PingRequest{0x1234abcdu}, kpi,           region,
          qoe,                      StatsRequest{}, ShutdownRequest{}};
}

TEST(ServeProtocol, RequestRoundTripEveryKind) {
  for (const Request& req : all_request_kinds()) {
    const std::string body = encode_request(req);
    Request out;
    ASSERT_EQ(decode_request(body, out), DecodeStatus::Ok)
        << to_string(kind_of(req));
    EXPECT_EQ(out, req) << to_string(kind_of(req));
  }
}

TEST(ServeProtocol, TruncatedRequestsAreMalformedAtEveryLength) {
  for (const Request& req : all_request_kinds()) {
    const std::string body = encode_request(req);
    for (std::size_t n = 0; n < body.size(); ++n) {
      Request out;
      EXPECT_EQ(decode_request(std::string_view(body).substr(0, n), out),
                DecodeStatus::Malformed)
          << to_string(kind_of(req)) << " truncated to " << n << " of "
          << body.size() << " bytes";
    }
  }
}

TEST(ServeProtocol, TrailingBytesAreMalformed) {
  for (const Request& req : all_request_kinds()) {
    std::string body = encode_request(req);
    body.push_back('\0');
    Request out;
    EXPECT_EQ(decode_request(body, out), DecodeStatus::Malformed)
        << to_string(kind_of(req));
  }
}

TEST(ServeProtocol, UnknownTagIsItsOwnStatus) {
  Request out;
  EXPECT_EQ(decode_request(std::string(1, '\x63'), out),
            DecodeStatus::UnknownKind);
  EXPECT_EQ(decode_request(std::string_view(), out), DecodeStatus::Malformed);
}

TEST(ServeProtocol, SelectorRejectsZeroStride) {
  KpiQuery kpi;
  kpi.dataset.stride = 0;
  Request out;
  EXPECT_EQ(decode_request(encode_request(Request{kpi}), out),
            DecodeStatus::Malformed);
}

TEST(ServeProtocol, ReplyRoundTripEveryKind) {
  KpiReply kpi{100, 55.5, 10.0, 50.0, 90.0, 99.0};
  RegionReply region;
  region.rows = {{0, 4, 1.0, 2.0}, {3, 9, 5.0, 6.0}};
  AppQoeReply qoe;
  qoe.rows = {{0, 1, 42, 33.0, 21.0, 0.5}};
  StatsReply stats;
  stats.requests = 12;
  stats.inflight_joins = 7;
  // The reply payload decodes by the echoed request kind, so each reply
  // travels under the kind of the request that produced it.
  const std::vector<std::pair<QueryKind, Reply>> replies = {
      {QueryKind::KpiPercentiles,
       Reply{ErrorReply{ErrorCode::BadScenario, "no such scenario"}}},
      {QueryKind::Ping, Reply{PongReply{0xfeedu}}},
      {QueryKind::KpiPercentiles, Reply{kpi}},
      {QueryKind::RegionSlice, Reply{region}},
      {QueryKind::AppQoe, Reply{qoe}},
      {QueryKind::Stats, Reply{stats}},
      {QueryKind::Shutdown, Reply{ShutdownReply{}}}};
  for (const auto& [req_kind, reply] : replies) {
    const std::string body =
        encode_reply(static_cast<std::uint8_t>(req_kind), reply);
    std::uint8_t kind = 0;
    Reply out;
    ASSERT_TRUE(decode_reply(body, kind, out)) << reply.index();
    EXPECT_EQ(kind, static_cast<std::uint8_t>(req_kind));
    EXPECT_EQ(out, reply) << reply.index();
  }
}

TEST(ServeProtocol, TruncatedRepliesNeverDecode) {
  RegionReply region;
  region.rows = {{1, 2, 3.0, 4.0}};
  const std::string body =
      encode_reply(static_cast<std::uint8_t>(QueryKind::RegionSlice),
                   Reply{region});
  for (std::size_t n = 0; n < body.size(); ++n) {
    std::uint8_t kind = 0;
    Reply out;
    EXPECT_FALSE(
        decode_reply(std::string_view(body).substr(0, n), kind, out))
        << "reply truncated to " << n << " bytes";
  }
}

// ---- Router error taxonomy -------------------------------------------------

TEST(ServeRouterErrors, PingEchoesToken) {
  Router router(hermetic_router_options());
  SessionState session;
  const auto [kind, reply] =
      unwrap(router.handle(encode_request(Request{PingRequest{77}}), session));
  EXPECT_EQ(kind, static_cast<std::uint8_t>(QueryKind::Ping));
  ASSERT_TRUE(std::holds_alternative<PongReply>(reply));
  EXPECT_EQ(std::get<PongReply>(reply).token, 77u);
  EXPECT_EQ(session.requests, 1u);
  EXPECT_EQ(session.errors, 0u);
}

TEST(ServeRouterErrors, UnknownKindGetsTypedError) {
  Router router(hermetic_router_options());
  SessionState session;
  const auto [kind, reply] = unwrap(router.handle("\x63", session));
  EXPECT_EQ(kind, 0x63);
  ASSERT_TRUE(std::holds_alternative<ErrorReply>(reply));
  EXPECT_EQ(std::get<ErrorReply>(reply).code, ErrorCode::UnknownKind);
  EXPECT_EQ(session.errors, 1u);
}

TEST(ServeRouterErrors, MalformedPayloadGetsTypedError) {
  Router router(hermetic_router_options());
  SessionState session;
  // A KPI tag with no payload at all.
  const auto [kind, reply] = unwrap(router.handle(
      std::string(1, static_cast<char>(QueryKind::KpiPercentiles)), session));
  EXPECT_EQ(kind, static_cast<std::uint8_t>(QueryKind::KpiPercentiles));
  ASSERT_TRUE(std::holds_alternative<ErrorReply>(reply));
  EXPECT_EQ(std::get<ErrorReply>(reply).code, ErrorCode::BadPayload);
}

TEST(ServeRouterErrors, UnknownScenarioGetsTypedError) {
  Router router(hermetic_router_options());
  SessionState session;
  KpiQuery kpi;
  kpi.dataset.scenario = "no-such-scenario";
  const auto [kind, reply] =
      unwrap(router.handle(encode_request(Request{kpi}), session));
  EXPECT_EQ(kind, static_cast<std::uint8_t>(QueryKind::KpiPercentiles));
  ASSERT_TRUE(std::holds_alternative<ErrorReply>(reply));
  EXPECT_EQ(std::get<ErrorReply>(reply).code, ErrorCode::BadScenario);
  // Nothing simulated and nothing resident for a query that never resolved.
  EXPECT_EQ(router.store().provider().campaign_simulations(), 0);
  EXPECT_EQ(router.store().resident(), 0u);
}

// A seed override past 2^53 makes a spec that validate() refuses: a typed
// BadScenario before anything resolves, not an Internal error thrown from
// the dataset resolution.
TEST(ServeRouterErrors, SeedAbove2To53GetsTypedError) {
  Router router(hermetic_router_options());
  SessionState session;
  KpiQuery kpi;
  kpi.dataset = fast_selector((std::uint64_t{1} << 53) + 2);
  const auto [kind, reply] =
      unwrap(router.handle(encode_request(Request{kpi}), session));
  EXPECT_EQ(kind, static_cast<std::uint8_t>(QueryKind::KpiPercentiles));
  ASSERT_TRUE(std::holds_alternative<ErrorReply>(reply));
  EXPECT_EQ(std::get<ErrorReply>(reply).code, ErrorCode::BadScenario);
  EXPECT_EQ(std::get<ErrorReply>(reply).message,
            "scenario: seed must be at most 2^53 (9007199254740992)");
  EXPECT_EQ(router.store().provider().campaign_simulations(), 0);
  EXPECT_EQ(router.store().resident(), 0u);
}

TEST(ServeRouterErrors, FrameLayerErrorsCarryKindZero) {
  Router router(hermetic_router_options());
  SessionState session;
  const auto [kind, reply] =
      unwrap(router.error_frame(ErrorCode::Truncated, "mid-frame EOF",
                                session));
  EXPECT_EQ(kind, 0u);
  ASSERT_TRUE(std::holds_alternative<ErrorReply>(reply));
  EXPECT_EQ(std::get<ErrorReply>(reply).code, ErrorCode::Truncated);
  EXPECT_EQ(std::get<ErrorReply>(reply).message, "mid-frame EOF");
}

TEST(ServeRouterErrors, StatsCountsRequestsAndErrors) {
  Router router(hermetic_router_options());
  SessionState session;
  (void)router.handle(encode_request(Request{PingRequest{1}}), session);
  (void)router.handle("\x63", session);
  const auto [kind, reply] =
      unwrap(router.handle(encode_request(Request{StatsRequest{}}), session));
  EXPECT_EQ(kind, static_cast<std::uint8_t>(QueryKind::Stats));
  ASSERT_TRUE(std::holds_alternative<StatsReply>(reply));
  const StatsReply& stats = std::get<StatsReply>(reply);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.store_capacity, static_cast<std::uint64_t>(
                                      router.store().capacity()));
}

TEST(ServeRouterErrors, ShutdownLatches) {
  Router router(hermetic_router_options());
  SessionState session;
  EXPECT_FALSE(router.shutdown_requested());
  const auto [kind, reply] = unwrap(
      router.handle(encode_request(Request{ShutdownRequest{}}), session));
  EXPECT_EQ(kind, static_cast<std::uint8_t>(QueryKind::Shutdown));
  EXPECT_TRUE(std::holds_alternative<ShutdownReply>(reply));
  EXPECT_TRUE(router.shutdown_requested());
}

// ---- LRU store -------------------------------------------------------------

TEST(ServeStore, LruEvictionBoundsResidency) {
  StoreOptions opts;
  opts.max_datasets = 2;
  opts.provider.use_cache = false;
  DatasetStore store(opts);
  std::atomic<int> factory_calls{0};
  store.set_campaign_factory_for_testing(
      [&](const trip::CampaignConfig&) {
        factory_calls.fetch_add(1);
        return std::make_shared<const trip::CampaignResult>();
      });

  const trip::CampaignConfig a = fast_config(1);
  const trip::CampaignConfig b = fast_config(2);
  const trip::CampaignConfig c = fast_config(3);
  ASSERT_NE(dataset::fingerprint(a), dataset::fingerprint(b));

  (void)store.campaign(a);
  (void)store.campaign(b);
  EXPECT_EQ(store.resident(), 2u);
  EXPECT_EQ(store.evictions(), 0);

  (void)store.campaign(c);  // capacity 2: the LRU entry (a) must go
  EXPECT_EQ(store.resident(), 2u);
  EXPECT_EQ(store.evictions(), 1);
  EXPECT_EQ(factory_calls.load(), 3);

  (void)store.campaign(a);  // evicted, so a fourth factory call
  EXPECT_EQ(factory_calls.load(), 4);
  EXPECT_EQ(store.misses(), 4);
  EXPECT_EQ(store.hits(), 0);
}

TEST(ServeStore, HitsBumpRecency) {
  StoreOptions opts;
  opts.max_datasets = 2;
  opts.provider.use_cache = false;
  DatasetStore store(opts);
  std::atomic<int> factory_calls{0};
  store.set_campaign_factory_for_testing(
      [&](const trip::CampaignConfig&) {
        factory_calls.fetch_add(1);
        return std::make_shared<const trip::CampaignResult>();
      });

  const trip::CampaignConfig a = fast_config(1);
  const trip::CampaignConfig b = fast_config(2);
  const trip::CampaignConfig c = fast_config(3);
  (void)store.campaign(a);
  (void)store.campaign(b);
  (void)store.campaign(a);  // hit: a becomes most recent
  EXPECT_EQ(store.hits(), 1);
  (void)store.campaign(c);  // evicts b, not a
  (void)store.campaign(a);  // still resident
  EXPECT_EQ(store.hits(), 2);
  EXPECT_EQ(factory_calls.load(), 3);
  (void)store.campaign(b);  // b was the eviction victim
  EXPECT_EQ(factory_calls.load(), 4);
}

TEST(ServeStore, EvictedDatasetsStayAliveForHolders) {
  StoreOptions opts;
  opts.max_datasets = 1;
  opts.provider.use_cache = false;
  DatasetStore store(opts);
  store.set_campaign_factory_for_testing([](const trip::CampaignConfig&) {
    return std::make_shared<const trip::CampaignResult>();
  });
  const auto held = store.campaign(fast_config(1));
  (void)store.campaign(fast_config(2));  // evicts the first entry
  EXPECT_EQ(store.evictions(), 1);
  EXPECT_EQ(held->logs.size(), 3u);  // shared_ptr keeps it valid
}

TEST(ServeStore, ConcurrentDistinctKeys) {
  constexpr int kThreads = 8;
  StoreOptions opts;
  opts.max_datasets = kThreads;
  opts.provider.use_cache = false;
  DatasetStore store(opts);
  std::atomic<int> factory_calls{0};
  store.set_campaign_factory_for_testing(
      [&](const trip::CampaignConfig&) {
        factory_calls.fetch_add(1);
        return std::make_shared<const trip::CampaignResult>();
      });

  std::vector<trip::CampaignConfig> cfgs;
  for (int i = 0; i < kThreads; ++i)
    cfgs.push_back(fast_config(static_cast<std::uint64_t>(100 + i)));

  std::atomic<int> null_results{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < 20; ++round) {
        if (!store.campaign(cfgs[static_cast<std::size_t>(i)]))
          null_results.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(null_results.load(), 0);
  EXPECT_EQ(factory_calls.load(), kThreads);
  EXPECT_EQ(store.resident(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(store.hits(), kThreads * 19);
}

// ---- Single-flight ---------------------------------------------------------

TEST(ServeSingleFlight, WaitersShareTheLeadersResult) {
  constexpr int kWaiters = 7;
  SingleFlight<int, int> flights;
  std::mutex mu;
  std::condition_variable cv;
  bool lead_started = false;
  int joined = 0;
  std::atomic<int> computes{0};

  auto resolve_one = [&](bool leader) {
    return flights.resolve(
        42,
        [&] {
          computes.fetch_add(1);
          // The leader holds the flight open until every waiter joined,
          // making "they all shared one computation" deterministic.
          std::unique_lock<std::mutex> lock(mu);
          cv.wait_for(lock, std::chrono::seconds(60),
                      [&] { return joined >= kWaiters; });
          return std::make_shared<const int>(1234);
        },
        [&] {
          EXPECT_TRUE(leader);
          const std::lock_guard<std::mutex> lock(mu);
          lead_started = true;
          cv.notify_all();
        },
        [&] {
          EXPECT_FALSE(leader);
          const std::lock_guard<std::mutex> lock(mu);
          ++joined;
          cv.notify_all();
        });
  };

  std::vector<std::shared_ptr<const int>> results(kWaiters + 1);
  std::thread lead([&] { results[0] = resolve_one(true); });
  // Wait for the leader's flight to exist so every other thread joins it.
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(60), [&] { return lead_started; });
  }
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back(
        [&, i] { results[static_cast<std::size_t>(i) + 1] = resolve_one(false); });
  }
  lead.join();
  for (auto& t : waiters) t.join();

  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(flights.in_flight(), 0u);
  for (const auto& r : results) {
    ASSERT_TRUE(r);
    EXPECT_EQ(r.get(), results[0].get());
    EXPECT_EQ(*r, 1234);
  }
}

TEST(ServeSingleFlight, ExceptionPropagatesAndFlightRetires) {
  SingleFlight<int, int> flights;
  EXPECT_THROW(
      (void)flights.resolve(
          7, []() -> std::shared_ptr<const int> {
            throw std::runtime_error("boom");
          },
          [] {}, [] {}),
      std::runtime_error);
  EXPECT_EQ(flights.in_flight(), 0u);
  // A later call retries instead of inheriting the failure.
  const auto ok = flights.resolve(
      7, [] { return std::make_shared<const int>(5); }, [] {}, [] {});
  ASSERT_TRUE(ok);
  EXPECT_EQ(*ok, 5);
}

// The acceptance-criterion proof: 8 concurrent requests for one cold
// fingerprint run exactly one simulation, with >= 7 in-flight joins, and
// every caller receives the same dataset.
TEST(ServeSingleFlight, HerdSimulatesOnce) {
  constexpr int kClients = 8;
  StoreOptions opts;
  opts.provider.use_cache = false;  // cold by construction
  DatasetStore store(opts);

  std::mutex mu;
  std::condition_variable cv;
  int joins = 0;
  store.provider().set_inflight_hook(
      [&](dataset::DatasetKind, std::uint64_t, bool joined) {
        std::unique_lock<std::mutex> lock(mu);
        if (joined) {
          ++joins;
          cv.notify_all();
          return;
        }
        // Leader: hold the flight open until the whole herd has joined so
        // the exactly-one-simulation assertion cannot race.
        cv.wait_for(lock, std::chrono::seconds(120),
                    [&] { return joins >= kClients - 1; });
      });

  const trip::CampaignConfig cfg = fast_config(4242);
  std::vector<std::shared_ptr<const trip::CampaignResult>> results(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back(
        [&, i] { results[static_cast<std::size_t>(i)] = store.campaign(cfg); });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(store.provider().campaign_simulations(), 1);
  EXPECT_EQ(store.provider().inflight_leaders(), 1);
  EXPECT_EQ(store.provider().inflight_joins(), kClients - 1);
  EXPECT_EQ(store.provider().disk_hits(), 0);
  for (const auto& r : results) {
    ASSERT_TRUE(r);
    EXPECT_EQ(r.get(), results[0].get());
  }
  EXPECT_EQ(store.resident(), 1u);
}

// ---- Byte-determinism across jobs and interleavings ------------------------

TEST(ServeDeterminism, ResponsesMatchAcrossJobsAndOrder) {
  std::vector<std::string> bodies;
  for (std::uint8_t test = 0; test <= 2; ++test) {
    KpiQuery kpi;
    kpi.dataset = fast_selector(7);
    kpi.op = test;  // a different operator per test for variety
    kpi.test = test;
    bodies.push_back(encode_request(Request{kpi}));
  }
  RegionSliceQuery region;
  region.dataset = fast_selector(7);
  region.op = 1;
  region.test = 0;
  bodies.push_back(encode_request(Request{region}));
  AppQoeQuery qoe;
  qoe.dataset = fast_selector(7);
  qoe.op = 2;
  bodies.push_back(encode_request(Request{qoe}));

  RouterOptions opts1 = hermetic_router_options();
  opts1.store.provider.jobs = 1;
  Router r1(opts1);
  RouterOptions opts4 = hermetic_router_options();
  opts4.store.provider.jobs = 4;
  Router r4(opts4);

  // jobs=1 serves the queries in order; jobs=4 serves them in reverse, so
  // byte-identity also covers request interleaving.
  std::vector<std::string> frames1(bodies.size());
  std::vector<std::string> frames4(bodies.size());
  SessionState s1, s4;
  for (std::size_t i = 0; i < bodies.size(); ++i)
    frames1[i] = r1.handle(bodies[i], s1);
  for (std::size_t i = bodies.size(); i-- > 0;)
    frames4[i] = r4.handle(bodies[i], s4);

  ASSERT_GE(r1.store().provider().campaign_simulations(), 1);
  ASSERT_GE(r4.store().provider().campaign_simulations(), 1);
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    EXPECT_EQ(frames1[i], frames4[i]) << "query " << i;
    // Sanity: the identical frames are real replies, not identical errors.
    const auto [kind, reply] = unwrap(frames1[i]);
    EXPECT_NE(kind, 0u);
    EXPECT_FALSE(std::holds_alternative<ErrorReply>(reply)) << "query " << i;
  }

  // Asking again (now store-resident) reproduces the same bytes.
  SessionState again;
  EXPECT_EQ(r1.handle(bodies[0], again), frames1[0]);
  EXPECT_GE(r1.store().hits(), 1);
}

// ---- Daemon transport ------------------------------------------------------

std::string scratch_socket(const std::string& name) {
  const std::string dir =
      "/tmp/wheels-serve-test-" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0700);
  const std::string path = dir + "/" + name + ".sock";
  ::unlink(path.c_str());
  return path;
}

bool wait_for_socket(const std::string& path) {
  for (int i = 0; i < 400; ++i) {
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0 && S_ISSOCK(st.st_mode)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return false;
}

struct RunningDaemon {
  explicit RunningDaemon(DaemonOptions opts) : daemon(std::move(opts)) {
    thread = std::thread([this] { exit_code.store(daemon.run()); });
    socket_ok = wait_for_socket(daemon.socket_path());
  }
  ~RunningDaemon() {
    daemon.request_stop();
    if (thread.joinable()) thread.join();
  }
  Daemon daemon;
  std::thread thread;
  std::atomic<int> exit_code{-1};
  bool socket_ok = false;
};

DaemonOptions daemon_options(const std::string& socket_name) {
  DaemonOptions opts;
  opts.socket_path = scratch_socket(socket_name);
  opts.idle_timeout_ms = 0;  // tests control timing explicitly
  opts.router.store.provider.use_cache = false;
  return opts;
}

TEST(ServeDaemon, PingStatsAndCleanShutdown) {
  RunningDaemon running(daemon_options("ping"));
  ASSERT_TRUE(running.socket_ok);

  Client client;
  ASSERT_TRUE(client.connect(running.daemon.socket_path()));
  const auto pong = client.call(Request{PingRequest{0xabcdefu}});
  ASSERT_TRUE(pong.has_value());
  ASSERT_TRUE(std::holds_alternative<PongReply>(pong->second));
  EXPECT_EQ(std::get<PongReply>(pong->second).token, 0xabcdefu);

  const auto stats = client.call(Request{StatsRequest{}});
  ASSERT_TRUE(stats.has_value());
  ASSERT_TRUE(std::holds_alternative<StatsReply>(stats->second));
  EXPECT_GE(std::get<StatsReply>(stats->second).requests, 2u);
  EXPECT_GE(std::get<StatsReply>(stats->second).sessions, 1u);

  const auto bye = client.call(Request{ShutdownRequest{}});
  ASSERT_TRUE(bye.has_value());
  EXPECT_TRUE(std::holds_alternative<ShutdownReply>(bye->second));

  running.thread.join();
  EXPECT_EQ(running.exit_code.load(), 0);
}

ErrorCode probe_error(const std::string& socket_path,
                      const std::string& raw_bytes, bool truncate_after) {
  Client client;
  if (!client.connect(socket_path)) return ErrorCode::Internal;
  if (!client.send_raw(raw_bytes)) return ErrorCode::Internal;
  if (truncate_after) client.shutdown_writes();
  const auto reply = client.read_reply();
  if (!reply.has_value() ||
      !std::holds_alternative<ErrorReply>(reply->second))
    return ErrorCode::Internal;
  return std::get<ErrorReply>(reply->second).code;
}

TEST(ServeDaemon, MalformedFramesGetTypedErrorsNotCrashes) {
  RunningDaemon running(daemon_options("malformed"));
  ASSERT_TRUE(running.socket_ok);
  const std::string& path = running.daemon.socket_path();

  EXPECT_EQ(probe_error(path, std::string("XWSV\0\0\0\0", 8), false),
            ErrorCode::BadMagic);
  EXPECT_EQ(probe_error(path, std::string("WSV1\xff\xff\xff\xff", 8), false),
            ErrorCode::Oversize);
  // A header promising 16 body bytes, then EOF after 3.
  EXPECT_EQ(probe_error(path, std::string("WSV1\x10\0\0\0", 8) + "abc", true),
            ErrorCode::Truncated);
  EXPECT_EQ(probe_error(path, wrap_frame(std::string(1, '\x63')), false),
            ErrorCode::UnknownKind);
  EXPECT_EQ(probe_error(
                path,
                wrap_frame(std::string(
                    1, static_cast<char>(QueryKind::KpiPercentiles))),
                false),
            ErrorCode::BadPayload);

  // The daemon survived every probe and still answers real requests.
  Client client;
  ASSERT_TRUE(client.connect(path));
  const auto pong = client.call(Request{PingRequest{9}});
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(std::holds_alternative<PongReply>(pong->second));
}

TEST(ServeDaemon, IdleClientsTimeOutWithTypedError) {
  DaemonOptions opts = daemon_options("idle");
  opts.idle_timeout_ms = 200;
  RunningDaemon running(std::move(opts));
  ASSERT_TRUE(running.socket_ok);

  Client client;
  ASSERT_TRUE(client.connect(running.daemon.socket_path()));
  // Send nothing: the daemon must report the timeout, then hang up.
  const auto reply = client.read_reply();
  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(std::holds_alternative<ErrorReply>(reply->second));
  EXPECT_EQ(std::get<ErrorReply>(reply->second).code, ErrorCode::IdleTimeout);
  EXPECT_FALSE(client.read_reply().has_value());  // connection closed
}

TEST(ServeDaemon, ConcurrentPings) {
  constexpr int kClients = 8;
  constexpr int kCallsEach = 50;
  RunningDaemon running(daemon_options("concurrent"));
  ASSERT_TRUE(running.socket_ok);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.connect(running.daemon.socket_path())) {
        failures.fetch_add(kCallsEach);
        return;
      }
      for (int i = 0; i < kCallsEach; ++i) {
        const std::uint64_t token =
            static_cast<std::uint64_t>(c) * 1000 + static_cast<std::uint64_t>(i);
        const auto reply = client.call(Request{PingRequest{token}});
        if (!reply.has_value() ||
            !std::holds_alternative<PongReply>(reply->second) ||
            std::get<PongReply>(reply->second).token != token)
          failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  Client client;
  ASSERT_TRUE(client.connect(running.daemon.socket_path()));
  const auto stats = client.call(Request{StatsRequest{}});
  ASSERT_TRUE(stats.has_value());
  ASSERT_TRUE(std::holds_alternative<StatsReply>(stats->second));
  EXPECT_GE(std::get<StatsReply>(stats->second).requests,
            static_cast<std::uint64_t>(kClients * kCallsEach));
  EXPECT_GE(std::get<StatsReply>(stats->second).sessions,
            static_cast<std::uint64_t>(kClients));
}

}  // namespace
}  // namespace wheels::serve
