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
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
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

// The bytes as lowercase hex, two digits each, for literal pins.
std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

// ---- Protocol --------------------------------------------------------------

TEST(ServeProtocol, FrameRoundTrip) {
  const std::string frame = wrap_frame("hello");
  EXPECT_EQ(hex(frame), "575356310500000068656c6c6f");
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

// The body of each all_request_kinds() request, literally: the round
// trips alone would pass if encoder and decoder changed the format
// together.
constexpr std::string_view kRequestBodies[] = {
    "01cdab341200000000",
    "020a757262616e2d6c6f6f7001070000000000000000040000010203000000000000"
    "39400000000000805140",
    "030d70617065722d64656661756c74000000000000000000400000000201",
    "040a757262616e2d6c6f6f70010b000000000000000004000000",
    "05",
    "06"};

TEST(ServeProtocol, RequestRoundTripEveryKind) {
  const std::vector<Request> requests = all_request_kinds();
  ASSERT_EQ(requests.size(), std::size(kRequestBodies));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& req = requests[i];
    const std::string body = encode_request(req);
    EXPECT_EQ(hex(body), kRequestBodies[i]) << to_string(kind_of(req));
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

TEST(ServeProtocol, SelectorNameOf255BytesRoundTrips256Throws) {
  KpiQuery kpi;
  kpi.dataset.scenario = std::string(kMaxNameBytes, 'a');
  const std::string body = encode_request(Request{kpi});
  Request out;
  ASSERT_EQ(decode_request(body, out), DecodeStatus::Ok);
  EXPECT_EQ(out, Request{kpi});
  // A cut name would select a different scenario, so it is refused.
  kpi.dataset.scenario.push_back('a');
  EXPECT_THROW((void)encode_request(Request{kpi}), std::invalid_argument);
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
  // travels under the kind of the request that produced it. Each body is
  // pinned literally.
  const std::vector<std::tuple<QueryKind, Reply, std::string>> replies = {
      {QueryKind::KpiPercentiles,
       Reply{ErrorReply{ErrorCode::BadScenario, "no such scenario"}},
       "0102060010006e6f2073756368207363656e6172696f"},
      {QueryKind::Ping, Reply{PongReply{0xfeedu}}, "0001edfe000000000000"},
      {QueryKind::KpiPercentiles, Reply{kpi},
       "000264000000000000000000000000c04b4000000000000024400000000000004940"
       "00000000008056400000000000c05840"},
      {QueryKind::RegionSlice, Reply{region},
       "000302000000000400000000000000000000000000f03f0000000000000040030900"
       "00000000000000000000000014400000000000001840"},
      {QueryKind::AppQoe, Reply{qoe},
       "00040100000000012a00000000000000000000000080404000000000000035400000"
       "00000000e03f"},
      {QueryKind::Stats, Reply{stats},
       "00050c00000000000000000000000000000000000000000000000000000000000000"
       "00000000000000000000000000000000000000000000000000000000000000000000"
       "00000000000007000000000000000000000000000000000000000000000000000000"
       "00000000"},
      {QueryKind::Shutdown, Reply{ShutdownReply{}}, "0006"}};
  for (const auto& [req_kind, reply, pinned] : replies) {
    const std::string body =
        encode_reply(static_cast<std::uint8_t>(req_kind), reply);
    EXPECT_EQ(hex(body), pinned) << reply.index();
    std::uint8_t kind = 0;
    Reply out;
    ASSERT_TRUE(decode_reply(body, kind, out)) << reply.index();
    EXPECT_EQ(kind, static_cast<std::uint8_t>(req_kind));
    EXPECT_EQ(out, reply) << reply.index();
  }
}

// One reply of each kind, each with the kind of the request it answers,
// with every field set.
std::vector<std::pair<std::uint8_t, Reply>> all_reply_kinds() {
  KpiReply kpi{7, 1.5, -2.0, 3.25, 1e9, 0.0};
  RegionReply region;
  region.rows = {{0, 1, 2.0, 3.0}, {1, 4, 5.0, 6.0}, {2, 7, 8.0, 9.0},
                 {3, 10, 11.0, 12.0}};
  AppQoeReply qoe;
  qoe.rows = {{0, 0, 5, 1.0, 2.0, 3.0}, {3, 1, 6, 4.0, 5.0, 6.0}};
  StatsReply stats{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  const auto kind = [](QueryKind k) { return static_cast<std::uint8_t>(k); };
  return {{0, ErrorReply{ErrorCode::Truncated, "frame cut short"}},
          {kind(QueryKind::Ping), PongReply{0x0102030405060708u}},
          {kind(QueryKind::KpiPercentiles), kpi},
          {kind(QueryKind::RegionSlice), region},
          {kind(QueryKind::AppQoe), qoe},
          {kind(QueryKind::Stats), stats},
          {kind(QueryKind::Shutdown), ShutdownReply{}}};
}

TEST(ServeProtocol, TruncatedRepliesNeverDecode) {
  for (const auto& [req_kind, reply] : all_reply_kinds()) {
    const std::string body = encode_reply(req_kind, reply);
    for (std::size_t n = 0; n < body.size(); ++n) {
      std::uint8_t kind = 0;
      Reply out;
      EXPECT_FALSE(
          decode_reply(std::string_view(body).substr(0, n), kind, out))
          << "reply " << reply.index() << " truncated to " << n << " bytes";
    }
  }
}

TEST(ServeProtocol, ErrorCodeOutsideTheEnumIsRefused) {
  std::string body =
      encode_reply(0, ErrorReply{ErrorCode::Internal, "message"});
  for (const int code : {0, 1, 9, 10, 99, 0xffff}) {
    body[2] = static_cast<char>(code & 0xff);
    body[3] = static_cast<char>(code >> 8);
    std::uint8_t kind = 0;
    Reply out;
    EXPECT_EQ(decode_reply(body, kind, out), code >= 1 && code <= 9)
        << "code " << code;
  }
}

// ---- Hostile bodies --------------------------------------------------------
// Seeded mutants of every request and reply body: bytes overwritten,
// inserted or deleted, and the body cut short. The decoder must reject a
// mutant, or accept it only when it re-encodes to exactly the mutant's
// bytes (the encoding is canonical, so an accepted body is a real one).

std::string mutate(const std::string& body, Rng& rng) {
  std::string m = body;
  const std::uint64_t edits = 1 + rng.uniform_index(3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const auto at = [&](std::size_t n) {
      return static_cast<std::ptrdiff_t>(rng.uniform_index(n));
    };
    const auto byte = static_cast<char>(rng.uniform_index(256));
    switch (rng.uniform_index(4)) {
      case 0:
        if (!m.empty()) m[static_cast<std::size_t>(at(m.size()))] = byte;
        break;
      case 1: m.insert(m.begin() + at(m.size() + 1), byte); break;
      case 2:
        if (!m.empty()) m.erase(m.begin() + at(m.size()));
        break;
      default: m.resize(static_cast<std::size_t>(at(m.size() + 1))); break;
    }
  }
  return m;
}

constexpr int kMutantsPerBody = 2000;

TEST(ServeMutation, RequestsAreRejectedOrCanonical) {
  Rng rng(25);
  int accepted = 0;
  int trials = 0;
  for (const Request& req : all_request_kinds()) {
    const std::string body = encode_request(req);
    for (int trial = 0; trial < kMutantsPerBody; ++trial, ++trials) {
      const std::string mutant = mutate(body, rng);
      Request out;
      if (decode_request(mutant, out) != DecodeStatus::Ok) continue;
      ++accepted;
      ASSERT_EQ(encode_request(out), mutant)
          << to_string(kind_of(req)) << " trial " << trial;
    }
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, trials);
}

TEST(ServeMutation, RepliesAreRejectedOrCanonical) {
  Rng rng(26);
  int accepted = 0;
  int trials = 0;
  for (const auto& [req_kind, reply] : all_reply_kinds()) {
    const std::string body = encode_reply(req_kind, reply);
    for (int trial = 0; trial < kMutantsPerBody; ++trial, ++trials) {
      const std::string mutant = mutate(body, rng);
      std::uint8_t kind = 0;
      Reply out;
      if (!decode_reply(mutant, kind, out)) continue;
      ++accepted;
      ASSERT_EQ(encode_reply(kind, out), mutant)
          << "reply " << reply.index() << " trial " << trial;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, trials);
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
