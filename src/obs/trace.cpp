#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>

#include "core/json_text.h"
#include "obs/clock.h"

namespace wheels::obs {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_tid{1};

struct Collector {
  std::mutex mu;
  std::vector<TraceEvent> events;
};

Collector& collector() {
  // wheels-lint: allow(static-local)
  static Collector instance;
  return instance;
}

std::uint32_t local_tid() {
  thread_local std::uint32_t id = 0;  // wheels-lint: allow(static-local)
  if (id == 0) id = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

bool trace_enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_trace_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

void clear_trace_events() {
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mu);
  c.events.clear();
}

std::vector<TraceEvent> trace_events() {
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mu);
  return c.events;
}

std::string trace_events_to_chrome_json() {
  const std::vector<TraceEvent> events = trace_events();
  std::int64_t origin_ns = 0;
  if (!events.empty()) {
    origin_ns = events.front().start_ns;
    for (const TraceEvent& e : events)
      origin_ns = std::min(origin_ns, e.start_ns);
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    const std::int64_t ts_us = (e.start_ns - origin_ns) / 1000;
    const std::int64_t end_us = (e.end_ns - origin_ns) / 1000;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, e.name);
    out += ",\"cat\":";
    append_json_string(out, e.cat);
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":";
    append_int(out, e.tid);
    out += ",\"ts\":";
    append_int(out, ts_us);
    out += ",\"dur\":";
    append_int(out, end_us - ts_us);
    out += '}';
  }
  out += "]}\n";
  return out;
}

Span::Span(std::string_view name, std::string_view cat) {
  if (!trace_enabled()) return;
  name_.assign(name);
  cat_.assign(cat);
  start_ns_ = now_ns();
  armed_ = true;
}

Span::~Span() {
  if (!armed_) return;
  TraceEvent event;
  event.name = std::move(name_);
  event.cat = std::move(cat_);
  event.tid = local_tid();
  event.start_ns = start_ns_;
  event.end_ns = now_ns();
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mu);
  c.events.push_back(std::move(event));
}

}  // namespace wheels::obs
