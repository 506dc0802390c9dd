// Measurement plumbing of the benchmark: obs counter deltas, span self
// times, hot-path accumulators and a small JSON writer for the result.
//
// Spans come from two places and land in the one obs collector: the
// program's own (campaign.record, campaign.replay.*, dataset.simulate.*,
// dataset.cache.load/store) and the benchmark's (dataset.resolve.* around
// every provider call, scenario.* around scenario resolution,
// serve.client.call around client calls). Everything stays in memory until
// the run ends. A span's self time is its duration minus the spans nested
// inside it on the same thread. The printer processes of warm-figures
// export their own spans and metrics, which the workload reads back.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.h"
#include "workloads.h"

namespace wheels::perfbench {

// The process-wide obs registry's metrics.
[[nodiscard]] Counters capture_counters();
// A metrics snapshot another process exported (obs::to_jsonl's format).
[[nodiscard]] Counters parse_metrics_jsonl(std::string_view text);
// b - a, key by key (missing keys read as 0).
[[nodiscard]] Counters counter_delta(const Counters& a, const Counters& b);
[[nodiscard]] std::int64_t get(const Counters& c, std::string_view key);

struct SpanTotals {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  // Self time of the spans that had a dataset.simulate.* child (a cold
  // resolve) versus those that had none (a warm resolve).
  std::int64_t self_with_sim_ns = 0;
  std::int64_t self_without_sim_ns = 0;
};

// The spans of a Chrome trace_event file another process exported (none
// for an empty text). obs rebases such a file to its first span, so they
// are placed with that span starting at `first_ns`.
[[nodiscard]] std::vector<ChildSpan> read_chrome_trace(std::string_view text,
                                                       std::int64_t pid,
                                                       std::int64_t first_ns);

// Totals by span name over this process's spans and `children` that
// started in [from_ns, to_ns).
[[nodiscard]] std::map<std::string, SpanTotals> span_totals(
    std::int64_t from_ns, std::int64_t to_ns,
    const std::vector<ChildSpan>& children);

// Chrome trace_event JSON of this process's spans (pid 1) and `children`
// (their own pids), in obs's format.
[[nodiscard]] std::string chrome_trace(const std::vector<ChildSpan>& children);

// Sum of one field over every span name starting with `prefix`.
[[nodiscard]] SpanTotals sum_prefix(
    const std::map<std::string, SpanTotals>& totals, std::string_view prefix);

// Lock-free duration accumulator for regions too hot to record as one span
// per call (a serve request runs in tens of microseconds).
struct Accum {
  std::atomic<std::int64_t> ns{0};
  std::atomic<std::int64_t> count{0};
  void add(std::int64_t d) {
    ns.fetch_add(d, std::memory_order_relaxed);
    count.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] double mean_us() const {
    const auto n = count.load();
    return n == 0 ? 0.0 : static_cast<double>(ns.load()) / 1e3 /
                              static_cast<double>(n);
  }
};

// Times a scope into an Accum.
class Timed {
 public:
  explicit Timed(Accum& a) : a_(a), t0_(obs::now_ns()) {}
  ~Timed() { a_.add(obs::now_ns() - t0_); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Accum& a_;
  std::int64_t t0_;
};

// Minimal JSON object writer: numbers keep every digit (shortest
// round-trip form), strings are escaped by scenario::json_quote, nested
// objects are built separately and added with raw().
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v);
  JsonObject& integer(std::string_view key, std::int64_t v);
  JsonObject& str(std::string_view key, std::string_view v);
  JsonObject& boolean(std::string_view key, bool v);
  JsonObject& raw(std::string_view key, std::string_view json);
  [[nodiscard]] std::string done() const { return body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_ = "{";
};

[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_list(const std::vector<double>& v);
[[nodiscard]] std::string json_list(const std::vector<std::string>& v);

}  // namespace wheels::perfbench
