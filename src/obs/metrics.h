// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms with per-thread shards.
//
// Determinism contract (see DESIGN.md "Observability"):
//   * Collection is bit-transparent. No metric update touches an Rng, a
//     SimTime, or any simulation output; enabling metrics cannot change
//     campaign bytes.
//   * Every value is integral (counts, bytes, microseconds), so merging
//     the per-thread shards is a plain sum -- associative and commutative,
//     independent of worker scheduling and of the WHEELS_JOBS value.
//   * Snapshots emit metrics sorted by name, so the exported byte stream
//     does not depend on which thread happened to register a metric first.
//   * Metrics are tagged Det::Stable (a pure function of the workload:
//     cache hits, simulation counts, bytes) or Det::WallClock (durations,
//     queue depths -- anything scheduling-dependent). Tests that assert
//     byte-stability across jobs values mask the WallClock ones, which the
//     JSONL exporter supports directly via stable_only.
//
// Hot-path cost: an update is one thread-local lookup plus a relaxed
// atomic load/store on a cell only its owning thread writes (snapshots
// read the same cells with relaxed loads, so ThreadSanitizer agrees the
// scheme is race-free). There is no enable check: collection is always on
// and cheap; only the exporters are gated by WHEELS_METRICS/WHEELS_TRACE.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wheels::obs {

class Registry;

// Whether a metric's value is a pure function of the workload (Stable) or
// depends on scheduling / wall-clock time (WallClock). Stable metrics must
// be byte-identical across WHEELS_JOBS values; WallClock ones are masked
// by determinism tests.
enum class Det : std::uint8_t { Stable, WallClock };

// Handles are registry-owned and live for the process lifetime; holding a
// reference across threads is safe (updates land in the calling thread's
// shard).
class Counter {
 public:
  void add(std::uint64_t n);
  void inc() { add(1); }

 private:
  friend class Registry;
  Counter(Registry* reg, std::size_t cell) : reg_(reg), cell_(cell) {}
  Registry* reg_;
  std::size_t cell_;
};

class Gauge {
 public:
  // Raise the gauge to v if v is larger (high-watermark semantics).
  void set_max(std::int64_t v);

 private:
  friend class Registry;
  Gauge(Registry* reg, std::size_t index) : reg_(reg), index_(index) {}
  Registry* reg_;
  std::size_t index_;
};

class Histogram {
 public:
  // Records v into the first bucket whose upper bound is >= v (the last,
  // unbounded bucket catches the rest). Negative values clamp to 0.
  void observe(std::int64_t v);

 private:
  friend class Registry;
  Histogram(Registry* reg, std::size_t cell,
            const std::vector<std::int64_t>* bounds)
      : reg_(reg), cell_(cell), bounds_(bounds) {}
  Registry* reg_;
  std::size_t cell_;  // first of bounds->size() + 3 cells
                      // (per-bucket counts incl. overflow, sum, count)
  const std::vector<std::int64_t>* bounds_;  // registry-owned, sorted
};

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

[[nodiscard]] constexpr std::string_view to_string(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

// One merged metric in a snapshot.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  Det det = Det::Stable;
  std::int64_t value = 0;            // counter / gauge
  std::vector<std::int64_t> bounds;  // histogram upper bounds (inclusive)
  std::vector<std::uint64_t> counts; // bounds.size() + 1 (overflow last)
  std::int64_t sum = 0;              // histogram: sum of observed values
  std::uint64_t count = 0;           // histogram: number of observations
};

struct Snapshot {
  std::vector<MetricValue> metrics;  // sorted by name

  // nullptr when the metric was never registered.
  [[nodiscard]] const MetricValue* find(std::string_view name) const;
};

// One JSON object per line, metrics in name order. With stable_only, the
// WallClock metrics are dropped (the mask determinism tests apply).
[[nodiscard]] std::string to_jsonl(const Snapshot& snap,
                                   bool stable_only = false);

class Registry {
 public:
  // The process-wide registry every instrumentation site uses.
  static Registry& global();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Registration is idempotent: the same name always returns the same
  // handle. Re-registering with a different kind (or different histogram
  // bounds) is a programming error and aborts loudly in debug builds; in
  // release the first registration wins.
  Counter& counter(std::string_view name, Det det = Det::Stable);
  Gauge& gauge(std::string_view name, Det det = Det::WallClock);
  Histogram& histogram(std::string_view name,
                       std::vector<std::int64_t> bounds,
                       Det det = Det::WallClock);

  // Merge every thread's shard (plus the totals of threads that have
  // exited) into one snapshot, sorted by metric name.
  [[nodiscard]] Snapshot snapshot() const;

  // Zero every value while keeping all registrations (handles stay
  // valid). Only call while no worker threads are updating metrics.
  void reset_values_for_testing();

  // Opaque internals (defined in metrics.cpp; the per-thread shard slot
  // there needs to name the type, hence the public declaration).
  class Impl;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  Registry();
  ~Registry();

  void bump(std::size_t cell, std::uint64_t n);
  void gauge_max(std::size_t index, std::int64_t v);

  Impl* impl_;
};

}  // namespace wheels::obs
