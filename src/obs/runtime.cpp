#include "obs/runtime.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string_view>
#include <utility>

#include "core/thread_pool.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/rng_audit.h"
#include "obs/trace.h"

namespace wheels::obs {
namespace {

struct ExportState {
  std::mutex mu;
  std::string metrics_path;
  std::string trace_path;
  std::string rng_audit_path;
  bool atexit_registered = false;
};

ExportState& state() {
  // wheels-lint: allow(static-local)
  static ExportState instance;
  return instance;
}

struct PoolMetrics {
  Counter& tasks;
  Histogram& task_us;
  Gauge& depth_max;
};

// The pool hooks run on worker threads, so the handles must exist before
// any pool does: install_thread_pool_hooks() touches this first.
PoolMetrics& pool_metrics() {
  // wheels-lint: allow(static-local)
  static PoolMetrics m{
      Registry::global().counter("pool.tasks", Det::WallClock),
      Registry::global().histogram(
          "pool.task_us",
          {100, 1000, 10000, 100000, 1000000, 10000000}, Det::WallClock),
      Registry::global().gauge("pool.queue_depth_max", Det::WallClock),
  };
  return m;
}

thread_local std::int64_t t_task_start_ns = 0;  // wheels-lint: allow(static-local)

void hook_on_submit(std::size_t depth) {
  pool_metrics().depth_max.set_max(static_cast<std::int64_t>(depth));
}

void hook_task_begin() { t_task_start_ns = now_ns(); }

void hook_task_end() {
  PoolMetrics& m = pool_metrics();
  m.tasks.inc();
  m.task_us.observe((now_ns() - t_task_start_ns) / 1000);
}

// nullptr / "" / "0" all mean "off" so WHEELS_TRACE=0 disables cleanly.
bool env_path(const char* value, std::string& out) {
  if (value == nullptr) return false;
  const std::string_view v(value);
  if (v.empty() || v == "0") return false;
  out.assign(v);
  return true;
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return (std::fclose(f) == 0) && wrote;
}

void flush_at_exit() { (void)flush_exports(); }

// Caller holds state().mu. Constructing the registry and the trace
// collector first matters: atexit handlers and magic-static destructors
// run in one reverse-registration sequence, so both collectors must exist
// (their destructors registered) before the flush handler registers --
// otherwise a collector constructed later (e.g. by the first span to
// close) would be torn down before the flush reads it.
void ensure_atexit_locked(ExportState& s) {
  if (s.atexit_registered) return;
  (void)Registry::global();
  (void)trace_events();
  (void)rng_audit_enabled();
  (void)std::atexit(&flush_at_exit);
  s.atexit_registered = true;
}

}  // namespace

void install_thread_pool_hooks() {
  (void)pool_metrics();
  // wheels-lint: allow(static-local)
  static const ThreadPoolHooks hooks{&hook_on_submit, &hook_task_begin,
                                     &hook_task_end};
  set_thread_pool_hooks(&hooks);
}

void init_from_env() {
  install_thread_pool_hooks();
  std::string path;
  if (env_path(std::getenv("WHEELS_METRICS"), path))
    set_metrics_export_path(std::move(path));
  if (env_path(std::getenv("WHEELS_TRACE"), path))
    set_trace_export_path(std::move(path));
  if (env_path(std::getenv("WHEELS_RNG_AUDIT"), path))
    set_rng_audit_enabled(true);
  if (env_path(std::getenv("WHEELS_RNG_AUDIT_OUT"), path))
    set_rng_audit_export_path(std::move(path));
}

void set_metrics_export_path(std::string path) {
  install_thread_pool_hooks();
  ExportState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.metrics_path = std::move(path);
  if (!s.metrics_path.empty()) ensure_atexit_locked(s);
}

void set_trace_export_path(std::string path) {
  install_thread_pool_hooks();
  ExportState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.trace_path = std::move(path);
  set_trace_enabled(!s.trace_path.empty());
  if (!s.trace_path.empty()) ensure_atexit_locked(s);
}

void set_rng_audit_export_path(std::string path) {
  install_thread_pool_hooks();
  ExportState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.rng_audit_path = std::move(path);
  if (!s.rng_audit_path.empty()) {
    set_rng_audit_enabled(true);
    ensure_atexit_locked(s);
  }
}

bool flush_exports() {
  std::string metrics_path;
  std::string trace_path;
  std::string rng_audit_path;
  {
    ExportState& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    metrics_path = s.metrics_path;
    trace_path = s.trace_path;
    rng_audit_path = s.rng_audit_path;
  }
  bool ok = true;
  if (!metrics_path.empty()) {
    const std::string body = to_jsonl(Registry::global().snapshot());
    if (!write_file(metrics_path, body)) {
      std::fprintf(stderr, "obs: failed to write metrics to %s\n",
                   metrics_path.c_str());
      ok = false;
    }
  }
  if (!trace_path.empty()) {
    if (!write_file(trace_path, trace_events_to_chrome_json())) {
      std::fprintf(stderr, "obs: failed to write trace to %s\n",
                   trace_path.c_str());
      ok = false;
    }
  }
  if (!rng_audit_path.empty()) {
    if (!write_file(rng_audit_path,
                    rng_audit_to_jsonl(rng_audit_snapshot()))) {
      std::fprintf(stderr, "obs: failed to write rng audit to %s\n",
                   rng_audit_path.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace wheels::obs
