// Wiring between the obs collectors and the outside world: env-var gating,
// exporter file paths, the atexit flush, and the core thread-pool hooks.
//
// Exporters are off by default. WHEELS_METRICS=<path> arms the JSON-lines
// metrics snapshot, WHEELS_TRACE=<path> arms the Chrome trace_event file
// (empty or "0" keeps an exporter off). WHEELS_RNG_AUDIT=1 enables the RNG
// provenance recorder and WHEELS_RNG_AUDIT_OUT=<path> additionally writes
// its JSONL fork tree at exit (setting only _OUT implies the recorder).
// Tools can arm the same exporters programmatically without touching the
// environment.
#pragma once

#include <string>

namespace wheels::obs {

// Read WHEELS_METRICS / WHEELS_TRACE, arm the matching exporters, install
// the thread-pool hooks, and register an atexit flush. Idempotent; safe to
// call from every entry point that wants observability.
void init_from_env();

// Arm (non-empty path) or disarm (empty) an exporter explicitly. Arming
// the trace exporter also turns span collection on. Also installs the
// thread-pool hooks and the atexit flush, like init_from_env().
void set_metrics_export_path(std::string path);
void set_trace_export_path(std::string path);
// Arming the RNG-audit exporter also enables the audit recorder (see
// obs/rng_audit.h); the JSONL fork-tree snapshot is written at flush.
void set_rng_audit_export_path(std::string path);

// Write every armed export now (overwriting the files). Returns false if
// any armed export failed to write; disarmed exporters are skipped and
// never fail. Also runs at process exit, so explicit calls are only needed
// to observe the files before exit.
bool flush_exports();

// Point core's ThreadPoolHooks at the obs counters (task count/latency,
// queue depth high-watermark). Idempotent; init_from_env() calls it.
void install_thread_pool_hooks();

}  // namespace wheels::obs
