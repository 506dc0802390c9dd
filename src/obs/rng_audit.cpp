#include "obs/rng_audit.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "core/json_text.h"
#include "core/rng.h"

namespace wheels::obs {
namespace {

// Hot-path cost mirrors the metrics shards: a draw is one thread-local
// hash lookup plus a relaxed fetch_add on a cell shared only through
// atomics. Fork/seed events are rare (tens per campaign) and take the
// global lock.
struct StreamRec {
  std::atomic<std::uint64_t> draws{0};
  std::uint64_t parent = 0;
  bool has_parent = false;
  std::uint64_t salt = 0;
  bool has_label = false;
  std::string label;
  std::uint64_t seeds = 0;
  std::uint64_t forks = 0;
  // A conflict is the runtime analogue of fork-collision: one stream id
  // arising from two distinct (parent, salt) pairs, or arising both by
  // seed construction and by fork. Repeated identical forks (the shared
  // trip-stream idiom) are not conflicts; they bump `forks` instead.
  std::uint64_t conflicts = 0;
};

struct AuditState {
  std::mutex mu;
  std::unordered_map<std::uint64_t, std::unique_ptr<StreamRec>> streams;
  // Bumped by reset_rng_audit() so per-thread pointer caches drop entries
  // that point into the cleared map.
  std::atomic<std::uint64_t> generation{1};
  std::atomic<bool> enabled{false};
};

AuditState& audit() {
  // wheels-lint: allow(static-local)
  static AuditState instance;
  return instance;
}

struct ThreadCache {
  std::unordered_map<std::uint64_t, StreamRec*> recs;
  std::uint64_t generation = 0;
};

ThreadCache& thread_cache() {
  // wheels-lint: allow(static-local)
  thread_local ThreadCache cache;
  return cache;
}

// Caller holds audit().mu.
StreamRec& rec_locked(AuditState& a, std::uint64_t id) {
  std::unique_ptr<StreamRec>& slot = a.streams[id];
  if (!slot) slot = std::make_unique<StreamRec>();
  return *slot;
}

StreamRec* rec_cached(std::uint64_t id) {
  AuditState& a = audit();
  ThreadCache& c = thread_cache();
  const std::uint64_t gen = a.generation.load(std::memory_order_acquire);
  if (c.generation != gen) {
    c.recs.clear();
    c.generation = gen;
  }
  const auto it = c.recs.find(id);
  if (it != c.recs.end()) return it->second;
  const std::lock_guard<std::mutex> lock(a.mu);
  StreamRec* rec = &rec_locked(a, id);
  c.recs.emplace(id, rec);
  return rec;
}

void hook_on_seed(std::uint64_t id, std::uint64_t /*seed*/) {
  AuditState& a = audit();
  const std::lock_guard<std::mutex> lock(a.mu);
  StreamRec& r = rec_locked(a, id);
  if (r.has_parent) ++r.conflicts;
  ++r.seeds;
}

void hook_on_fork(std::uint64_t parent, std::uint64_t child,
                  std::uint64_t salt, const char* label,
                  std::size_t label_len) {
  AuditState& a = audit();
  const std::lock_guard<std::mutex> lock(a.mu);
  // Make the parent visible even if it never draws (pure hub streams).
  (void)rec_locked(a, parent);
  StreamRec& c = rec_locked(a, child);
  if (c.forks == 0) {
    if (c.seeds > 0) ++c.conflicts;
    c.parent = parent;
    c.has_parent = true;
    c.salt = salt;
    if (label != nullptr) {
      c.has_label = true;
      c.label.assign(label, label_len);
    }
  } else if (c.parent != parent || c.salt != salt) {
    ++c.conflicts;
  }
  ++c.forks;
}

void hook_on_draw(std::uint64_t id) {
  rec_cached(id)->draws.fetch_add(1, std::memory_order_relaxed);
}

constexpr RngHooks kAuditHooks{&hook_on_seed, &hook_on_fork, &hook_on_draw};

void append_hex(std::string& out, std::uint64_t v) {
  char buf[19];
  const int n = std::snprintf(buf, sizeof buf, "0x%016llx",
                              static_cast<unsigned long long>(v));
  out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace

void set_rng_audit_enabled(bool on) {
  AuditState& a = audit();
  const bool was = a.enabled.exchange(on);
  if (on == was) return;
  set_rng_hooks(on ? &kAuditHooks : nullptr);
}

bool rng_audit_enabled() { return audit().enabled.load(); }

void reset_rng_audit() {
  AuditState& a = audit();
  const std::lock_guard<std::mutex> lock(a.mu);
  a.streams.clear();
  a.generation.fetch_add(1, std::memory_order_release);
}

std::vector<RngStreamStat> rng_audit_snapshot() {
  AuditState& a = audit();
  std::vector<RngStreamStat> out;
  {
    const std::lock_guard<std::mutex> lock(a.mu);
    out.reserve(a.streams.size());
    // Sorted by id below before anything consumes the rows.
    // wheels-lint: allow(unordered-iter)
    for (const auto& [id, rec] : a.streams) {
      RngStreamStat s;
      s.id = id;
      s.has_parent = rec->has_parent;
      s.parent = rec->parent;
      s.salt = rec->salt;
      s.has_label = rec->has_label;
      s.label = rec->label;
      s.seeds = rec->seeds;
      s.forks = rec->forks;
      s.draws = rec->draws.load(std::memory_order_relaxed);
      s.conflicts = rec->conflicts;
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RngStreamStat& x, const RngStreamStat& y) {
              return x.id < y.id;
            });
  return out;
}

std::string rng_audit_to_jsonl(const std::vector<RngStreamStat>& stats) {
  std::string out;
  for (const RngStreamStat& s : stats) {
    out.append("{\"id\":\"");
    append_hex(out, s.id);
    out.append("\",\"parent\":");
    if (s.has_parent) {
      out.push_back('"');
      append_hex(out, s.parent);
      out.push_back('"');
    } else {
      out.append("null");
    }
    out.append(",\"salt\":");
    if (s.has_parent) {
      out.push_back('"');
      append_hex(out, s.salt);
      out.push_back('"');
    } else {
      out.append("null");
    }
    out.append(",\"label\":");
    if (s.has_label) {
      append_json_string(out, s.label);
    } else {
      out.append("null");
    }
    out.append(",\"seeds\":").append(std::to_string(s.seeds));
    out.append(",\"forks\":").append(std::to_string(s.forks));
    out.append(",\"draws\":").append(std::to_string(s.draws));
    out.append(",\"conflicts\":").append(std::to_string(s.conflicts));
    out.append("}\n");
  }
  return out;
}

}  // namespace wheels::obs
