// Unit tests for the src/obs observability subsystem: histogram bucket
// math, shard-merge determinism across thread schedules, the name-sorted
// snapshot + JSONL contract, and the Chrome trace_event exporter driven
// by a synthetic clock (set_clock_for_testing) so span arithmetic is
// exact instead of wall-clock-flaky.
//
// The registry is process-global, so every test resets values up front
// and uses test-prefixed metric names; handles stay valid across resets.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/json.h"

namespace wheels::obs {
namespace {

std::atomic<std::int64_t> g_fake_ns{0};
std::int64_t fake_now() { return g_fake_ns.load(); }

TEST(ObsRegistry, RegistrationIsIdempotent) {
  Registry& reg = Registry::global();
  Counter& a = reg.counter("test.idempotent");
  Counter& b = reg.counter("test.idempotent");
  EXPECT_EQ(&a, &b) << "same name must return the same handle";
}

TEST(ObsHistogram, BucketBoundsAreInclusiveAndNegativesClampToZero) {
  Registry& reg = Registry::global();
  Histogram& h =
      reg.histogram("test.hist.buckets", {10, 100, 1000}, Det::Stable);
  reg.reset_values_for_testing();

  h.observe(-7);    // clamps to 0 -> bucket 0, contributes 0 to sum
  h.observe(5);     // bucket 0
  h.observe(10);    // bucket 0 (upper bounds are inclusive)
  h.observe(11);    // bucket 1
  h.observe(100);   // bucket 1
  h.observe(1000);  // bucket 2
  h.observe(1001);  // overflow bucket

  const Snapshot snap = reg.snapshot();
  const MetricValue* mv = snap.find("test.hist.buckets");
  ASSERT_NE(mv, nullptr);
  EXPECT_EQ(mv->kind, MetricKind::Histogram);
  EXPECT_EQ(mv->det, Det::Stable);
  ASSERT_EQ(mv->bounds, (std::vector<std::int64_t>{10, 100, 1000}));
  ASSERT_EQ(mv->counts.size(), 4u);  // bounds + overflow
  EXPECT_EQ(mv->counts[0], 3u);
  EXPECT_EQ(mv->counts[1], 2u);
  EXPECT_EQ(mv->counts[2], 1u);
  EXPECT_EQ(mv->counts[3], 1u);
  EXPECT_EQ(mv->count, 7u);
  EXPECT_EQ(mv->sum, 0 + 5 + 10 + 11 + 100 + 1000 + 1001);
}

TEST(ObsGauge, SetMaxIsHighWatermark) {
  Registry& reg = Registry::global();
  Gauge& g = reg.gauge("test.gauge.watermark");
  reg.reset_values_for_testing();

  g.set_max(7);
  g.set_max(3);  // below the current value: no-op
  const Snapshot mid = reg.snapshot();
  ASSERT_NE(mid.find("test.gauge.watermark"), nullptr);
  EXPECT_EQ(mid.find("test.gauge.watermark")->value, 7);

  g.set_max(12);  // raises
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("test.gauge.watermark")->value, 12);
  EXPECT_EQ(snap.find("test.gauge.watermark")->det, Det::WallClock);
}

TEST(ObsSnapshot, SortedByNameRegardlessOfRegistrationOrder) {
  Registry& reg = Registry::global();
  reg.counter("test.sort.b");
  reg.counter("test.sort.a");
  reg.counter("test.sort.c");
  const Snapshot snap = reg.snapshot();

  std::vector<std::string> names;
  for (const MetricValue& mv : snap.metrics) names.push_back(mv.name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()))
      << "snapshot order must not depend on registration order";
  ASSERT_NE(snap.find("test.sort.a"), nullptr);
  ASSERT_NE(snap.find("test.sort.b"), nullptr);
  EXPECT_EQ(snap.find("test.sort.missing"), nullptr);
}

TEST(ObsJsonl, CounterLineFormatAndStableOnlyMask) {
  Registry& reg = Registry::global();
  Counter& stable = reg.counter("test.jsonl.stable", Det::Stable);
  Counter& wall = reg.counter("test.jsonl.wall", Det::WallClock);
  reg.reset_values_for_testing();
  stable.add(3);
  wall.add(9);

  const Snapshot snap = reg.snapshot();
  const std::string all = to_jsonl(snap);
  EXPECT_NE(all.find("{\"metric\":\"test.jsonl.stable\",\"type\":\"counter\""
                     ",\"det\":true,\"value\":3}\n"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("{\"metric\":\"test.jsonl.wall\",\"type\":\"counter\""
                     ",\"det\":false,\"value\":9}\n"),
            std::string::npos)
      << all;

  const std::string masked = to_jsonl(snap, /*stable_only=*/true);
  EXPECT_NE(masked.find("test.jsonl.stable"), std::string::npos);
  EXPECT_EQ(masked.find("test.jsonl.wall"), std::string::npos)
      << "stable_only must drop WallClock metrics";
}

TEST(ObsShards, MergeIsIndependentOfThreadStartOrder) {
  Registry& reg = Registry::global();
  Counter& c = reg.counter("test.shard.counter", Det::Stable);
  Histogram& h = reg.histogram("test.shard.hist", {10, 100}, Det::Stable);

  const auto run_round = [&](bool reversed) {
    reg.reset_values_for_testing();
    std::vector<int> ids{1, 2, 3, 4};
    if (reversed) std::reverse(ids.begin(), ids.end());
    std::vector<std::thread> threads;
    for (const int id : ids) {
      threads.emplace_back([&, id] {
        for (int i = 0; i < id * 100; ++i) {
          c.inc();
          h.observe(id * 7);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return to_jsonl(reg.snapshot());
  };

  const std::string forward = run_round(false);
  const std::string backward = run_round(true);
  EXPECT_EQ(forward, backward)
      << "merged output must not depend on thread creation order";

  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("test.shard.counter")->value, 100 + 200 + 300 + 400);
  EXPECT_EQ(snap.find("test.shard.hist")->count, 1000u);
}

TEST(ObsShards, LiveAndRetiredShardsBothCount) {
  Registry& reg = Registry::global();
  Counter& c = reg.counter("test.shard.live", Det::Stable);
  reg.reset_values_for_testing();

  std::atomic<bool> wrote{false};
  std::atomic<bool> release{false};
  std::thread t([&] {
    c.add(5);
    wrote.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!wrote.load()) std::this_thread::yield();

  // The worker is still alive: its shard is read live.
  EXPECT_EQ(reg.snapshot().find("test.shard.live")->value, 5);

  release.store(true);
  t.join();
  // After exit the shard has retired into the registry totals.
  EXPECT_EQ(reg.snapshot().find("test.shard.live")->value, 5);
}

TEST(ObsTrace, DisabledTracingRecordsNothing) {
  clear_trace_events();
  ASSERT_FALSE(trace_enabled());
  { Span ghost("ghost"); }
  EXPECT_TRUE(trace_events().empty());
}

TEST(ObsTrace, ChromeJsonSchemaWithSyntheticClock) {
  set_clock_for_testing(&fake_now);
  clear_trace_events();
  set_trace_enabled(true);

  g_fake_ns.store(1'000'000);
  {
    Span outer("outer");
    g_fake_ns.store(2'000'000);
    {
      Span inner("inner", "dataset");
      g_fake_ns.store(3'500'000);
    }
    g_fake_ns.store(6'000'000);
  }

  set_trace_enabled(false);
  set_clock_for_testing(nullptr);

  const std::vector<TraceEvent> events = trace_events();
  ASSERT_EQ(events.size(), 2u);
  // Spans record at destruction, so the inner one lands first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].cat, "dataset");
  EXPECT_EQ(events[0].start_ns, 2'000'000);
  EXPECT_EQ(events[0].end_ns, 3'500'000);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].cat, "campaign");
  EXPECT_EQ(events[1].tid, events[0].tid) << "same thread, same lane";

  // Timestamps rebase to the earliest span (outer, 1 ms): outer becomes
  // ts=0 dur=5000 us, inner ts=1000 dur=1500 us -- properly nested.
  const std::string json = trace_events_to_chrome_json();
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  EXPECT_NE(json.find("{\"name\":\"inner\",\"cat\":\"dataset\",\"ph\":\"X\""
                      ",\"pid\":1,\"tid\":"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(",\"ts\":1000,\"dur\":1500}"), std::string::npos)
      << json;
  EXPECT_NE(json.find(",\"ts\":0,\"dur\":5000}"), std::string::npos) << json;

  clear_trace_events();
}

// Operator and waypoint names come from scenario documents, which may hold
// any character, and reach span and metric names: both exporters write
// each name as an escaped JSON string.
TEST(ObsJson, ControlCharactersInNamesAreEscaped) {
  const std::string name = "test.escape.\t\n\x01\"\\";
  const std::string quoted = "\"test.escape.\\t\\n\\u0001\\\"\\\\\"";

  Registry& reg = Registry::global();
  reg.counter(name, Det::Stable).add(0);
  reg.reset_values_for_testing();
  const std::string line = "{\"metric\":" + quoted +
                           ",\"type\":\"counter\",\"det\":true,\"value\":0}";
  const std::string jsonl = to_jsonl(reg.snapshot());
  EXPECT_NE(jsonl.find(line + "\n"), std::string::npos) << jsonl;
  EXPECT_EQ(scenario::parse_json(line).find("metric")->string, name);

  set_clock_for_testing(&fake_now);
  clear_trace_events();
  set_trace_enabled(true);
  g_fake_ns.store(0);
  {
    Span span(name);
    g_fake_ns.store(2'000);
  }
  set_trace_enabled(false);
  set_clock_for_testing(nullptr);
  const std::vector<TraceEvent> events = trace_events();
  ASSERT_EQ(events.size(), 1u);
  const std::string json = trace_events_to_chrome_json();
  EXPECT_EQ(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":" +
                      quoted +
                      ",\"cat\":\"campaign\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
                      std::to_string(events[0].tid) +
                      ",\"ts\":0,\"dur\":2}]}\n");
  const scenario::JsonValue doc = scenario::parse_json(json);
  EXPECT_EQ(doc.find("traceEvents")->array.at(0).find("name")->string, name);
  clear_trace_events();
}

}  // namespace
}  // namespace wheels::obs
