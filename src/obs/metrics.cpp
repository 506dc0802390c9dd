#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "core/json_text.h"

namespace wheels::obs {
namespace {

constexpr std::size_t kChunkCells = 64;

struct CellChunk {
  std::array<std::atomic<std::uint64_t>, kChunkCells> cells{};
};

// Per-thread cell store. The owning thread is the only writer, so bump()
// can use a plain relaxed load+store instead of an RMW; snapshot readers
// use relaxed loads on the same atomics and can never see a torn value.
// The chunk vector itself only grows under the registry mutex (which
// snapshot also holds), and bump() never runs concurrently with the owner
// growing its own shard.
class Shard {
 public:
  void bump(std::size_t i, std::uint64_t n) {
    std::atomic<std::uint64_t>& cell =
        chunks_[i / kChunkCells]->cells[i % kChunkCells];
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t load(std::size_t i) const {
    if (i >= cap_.load(std::memory_order_relaxed)) return 0;
    return chunks_[i / kChunkCells]->cells[i % kChunkCells].load(
        std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const {
    return cap_.load(std::memory_order_relaxed);
  }

  // Caller holds the registry mutex.
  void grow_to(std::size_t cells) {
    while (cap_.load(std::memory_order_relaxed) < cells) {
      chunks_.push_back(std::make_unique<CellChunk>());
      cap_.store(chunks_.size() * kChunkCells, std::memory_order_relaxed);
    }
  }

  // Caller holds the registry mutex and guarantees no concurrent updates.
  void zero() {
    for (auto& chunk : chunks_)
      for (auto& cell : chunk->cells) cell.store(0, std::memory_order_relaxed);
  }

 private:
  std::vector<std::unique_ptr<CellChunk>> chunks_;
  std::atomic<std::size_t> cap_{0};
};

}  // namespace

class Registry::Impl {
 public:
  struct Def {
    std::string name;
    MetricKind kind = MetricKind::Counter;
    Det det = Det::Stable;
    std::vector<std::int64_t> bounds;  // histogram only
    std::size_t cell_begin = 0;        // counter / histogram
    std::size_t cell_count = 0;
    std::size_t gauge_index = 0;  // gauge only
    // The process-lifetime handle handed back to callers. Defs live in a
    // deque so these addresses are stable across registrations.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct GaugeCell {
    std::atomic<std::int64_t> v{0};
  };

  mutable std::mutex mu;
  std::deque<Def> defs;
  std::map<std::string, std::size_t, std::less<>> by_name;
  std::deque<GaugeCell> gauges;
  std::size_t total_cells = 0;
  std::vector<std::uint64_t> retired;  // totals of exited threads
  std::vector<Shard*> shards;          // live per-thread shards
};

namespace {

// The calling thread's shard, registered with the process registry on
// first use and folded into the retired totals when the thread exits.
// Thread-local destruction strongly happens before static destruction on
// the same thread, and worker threads are joined before process exit, so
// the registry outlives every slot that points at it.
struct ThreadSlot {
  Registry::Impl* impl = nullptr;
  Shard shard;

  ~ThreadSlot() {
    if (impl == nullptr) return;
    const std::lock_guard<std::mutex> lock(impl->mu);
    for (std::size_t i = 0; i < impl->total_cells; ++i)
      impl->retired[i] += shard.load(i);
    impl->shards.erase(
        std::remove(impl->shards.begin(), impl->shards.end(), &shard),
        impl->shards.end());
  }
};

thread_local ThreadSlot t_slot;  // wheels-lint: allow(static-local)

void append_uint(std::string& out, std::uint64_t v) {
  std::array<char, 32> buf{};
  const int n = std::snprintf(buf.data(), buf.size(), "%llu",
                              static_cast<unsigned long long>(v));
  out.append(buf.data(), static_cast<std::size_t>(n));
}

}  // namespace

Registry& Registry::global() {
  // Magic static: constructed on first use, before any thread-local slot
  // can attach to it.
  // wheels-lint: allow(static-local)
  static Registry instance;
  return instance;
}

Registry::Registry() : impl_(new Impl) {}

Registry::~Registry() { delete impl_; }

Counter& Registry::counter(std::string_view name, Det det) {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  if (const auto it = impl_->by_name.find(name); it != impl_->by_name.end()) {
    Impl::Def& def = impl_->defs[it->second];
    assert(def.kind == MetricKind::Counter && "metric re-registered as counter");
    return *def.counter;
  }
  Impl::Def& def = impl_->defs.emplace_back();
  def.name = std::string(name);
  def.kind = MetricKind::Counter;
  def.det = det;
  def.cell_begin = impl_->total_cells;
  def.cell_count = 1;
  impl_->total_cells += 1;
  impl_->retired.resize(impl_->total_cells, 0);
  def.counter.reset(new Counter(this, def.cell_begin));
  impl_->by_name.emplace(def.name, impl_->defs.size() - 1);
  return *def.counter;
}

Gauge& Registry::gauge(std::string_view name, Det det) {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  if (const auto it = impl_->by_name.find(name); it != impl_->by_name.end()) {
    Impl::Def& def = impl_->defs[it->second];
    assert(def.kind == MetricKind::Gauge && "metric re-registered as gauge");
    return *def.gauge;
  }
  Impl::Def& def = impl_->defs.emplace_back();
  def.name = std::string(name);
  def.kind = MetricKind::Gauge;
  def.det = det;
  def.gauge_index = impl_->gauges.size();
  impl_->gauges.emplace_back();
  def.gauge.reset(new Gauge(this, def.gauge_index));
  impl_->by_name.emplace(def.name, impl_->defs.size() - 1);
  return *def.gauge;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<std::int64_t> bounds, Det det) {
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  const std::lock_guard<std::mutex> lock(impl_->mu);
  if (const auto it = impl_->by_name.find(name); it != impl_->by_name.end()) {
    Impl::Def& def = impl_->defs[it->second];
    assert(def.kind == MetricKind::Histogram && def.bounds == bounds &&
           "metric re-registered as a different histogram");
    return *def.histogram;
  }
  Impl::Def& def = impl_->defs.emplace_back();
  def.name = std::string(name);
  def.kind = MetricKind::Histogram;
  def.det = det;
  def.bounds = std::move(bounds);
  def.cell_begin = impl_->total_cells;
  // bounds.size() + 1 bucket counts (overflow last), then sum, then count.
  def.cell_count = def.bounds.size() + 3;
  impl_->total_cells += def.cell_count;
  impl_->retired.resize(impl_->total_cells, 0);
  def.histogram.reset(new Histogram(this, def.cell_begin, &def.bounds));
  impl_->by_name.emplace(def.name, impl_->defs.size() - 1);
  return *def.histogram;
}

void Registry::bump(std::size_t cell, std::uint64_t n) {
  ThreadSlot& slot = t_slot;
  if (slot.impl != impl_) {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    slot.shard.grow_to(impl_->total_cells);
    impl_->shards.push_back(&slot.shard);
    slot.impl = impl_;
  }
  if (cell >= slot.shard.capacity()) {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    slot.shard.grow_to(impl_->total_cells);
  }
  slot.shard.bump(cell, n);
}

void Registry::gauge_store(std::size_t index, std::int64_t v, bool max_only) {
  Impl::GaugeCell& cell = impl_->gauges[index];
  if (!max_only) {
    cell.v.store(v, std::memory_order_relaxed);
    return;
  }
  std::int64_t cur = cell.v.load(std::memory_order_relaxed);
  while (v > cur && !cell.v.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
  }
}

Snapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::uint64_t> totals = impl_->retired;
  for (const Shard* shard : impl_->shards)
    for (std::size_t i = 0; i < totals.size(); ++i) totals[i] += shard->load(i);

  Snapshot snap;
  snap.metrics.reserve(impl_->defs.size());
  for (const Impl::Def& def : impl_->defs) {
    MetricValue mv;
    mv.name = def.name;
    mv.kind = def.kind;
    mv.det = def.det;
    switch (def.kind) {
      case MetricKind::Counter:
        mv.value = static_cast<std::int64_t>(totals[def.cell_begin]);
        break;
      case MetricKind::Gauge:
        mv.value = impl_->gauges[def.gauge_index].v.load(
            std::memory_order_relaxed);
        break;
      case MetricKind::Histogram: {
        mv.bounds = def.bounds;
        const std::size_t buckets = def.bounds.size() + 1;
        mv.counts.assign(buckets, 0);
        for (std::size_t b = 0; b < buckets; ++b)
          mv.counts[b] = totals[def.cell_begin + b];
        mv.sum = static_cast<std::int64_t>(totals[def.cell_begin + buckets]);
        mv.count = totals[def.cell_begin + buckets + 1];
        break;
      }
    }
    snap.metrics.push_back(std::move(mv));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return snap;
}

void Registry::reset_values_for_testing() {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  std::fill(impl_->retired.begin(), impl_->retired.end(), 0);
  for (Shard* shard : impl_->shards) shard->zero();
  for (Impl::GaugeCell& cell : impl_->gauges)
    cell.v.store(0, std::memory_order_relaxed);
}

void Counter::add(std::uint64_t n) { reg_->bump(cell_, n); }

void Gauge::set(std::int64_t v) { reg_->gauge_store(index_, v, false); }

void Gauge::set_max(std::int64_t v) { reg_->gauge_store(index_, v, true); }

void Histogram::observe(std::int64_t v) {
  if (v < 0) v = 0;
  const auto it = std::lower_bound(bounds_->begin(), bounds_->end(), v);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_->begin());  // == size() -> overflow
  const std::size_t buckets = bounds_->size() + 1;
  reg_->bump(cell_ + bucket, 1);
  reg_->bump(cell_ + buckets, static_cast<std::uint64_t>(v));
  reg_->bump(cell_ + buckets + 1, 1);
}

const MetricValue* Snapshot::find(std::string_view name) const {
  const auto it = std::lower_bound(
      metrics.begin(), metrics.end(), name,
      [](const MetricValue& mv, std::string_view n) { return mv.name < n; });
  if (it == metrics.end() || it->name != name) return nullptr;
  return &*it;
}

std::string to_jsonl(const Snapshot& snap, bool stable_only) {
  std::string out;
  for (const MetricValue& mv : snap.metrics) {
    if (stable_only && mv.det != Det::Stable) continue;
    out += "{\"metric\":";
    append_json_string(out, mv.name);
    out += ",\"type\":\"";
    out += to_string(mv.kind);
    out += "\",\"det\":";
    out += mv.det == Det::Stable ? "true" : "false";
    if (mv.kind == MetricKind::Histogram) {
      out += ",\"le\":[";
      for (std::size_t i = 0; i < mv.bounds.size(); ++i) {
        if (i > 0) out += ',';
        append_int(out, mv.bounds[i]);
      }
      out += "],\"counts\":[";
      for (std::size_t i = 0; i < mv.counts.size(); ++i) {
        if (i > 0) out += ',';
        append_uint(out, mv.counts[i]);
      }
      out += "],\"sum\":";
      append_int(out, mv.sum);
      out += ",\"count\":";
      append_uint(out, mv.count);
    } else {
      out += ",\"value\":";
      append_int(out, mv.value);
    }
    out += "}\n";
  }
  return out;
}

}  // namespace wheels::obs
