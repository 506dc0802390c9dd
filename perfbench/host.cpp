#include "host.h"

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <vector>

#include "core/rng.h"
#include "obs/clock.h"

namespace wheels::perfbench {

CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks t;
  if (!(in >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

namespace {

// Where the probes leave their results, so the loops are not optimized out.
volatile std::uint64_t g_sink = 0;

double alu_probe_ms() {
  const std::int64_t t0 = obs::now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const std::int64_t t1 = obs::now_ns();
  g_sink = x;
  return static_cast<double>(t1 - t0) / 1e6;
}

double chase_probe_ns() {
  // One random cycle through every slot, so each load depends on the last
  // and the prefetcher cannot help.
  const std::size_t n = kChaseBytes / sizeof(std::uint32_t);
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(7);
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.uniform_index(i + 1)]);
  }
  std::vector<std::uint32_t> next(n);
  for (std::size_t i = 0; i < n; ++i) next[order[i]] = order[(i + 1) % n];
  const std::size_t steps = n;
  std::uint32_t p = order[0];
  const std::int64_t t0 = obs::now_ns();
  for (std::size_t i = 0; i < steps; ++i) p = next[p];
  const std::int64_t t1 = obs::now_ns();
  g_sink = p;
  return static_cast<double>(t1 - t0) / static_cast<double>(steps);
}

}  // namespace

ProbeResult run_probes() {
  ProbeResult r;
  r.alu_ms = alu_probe_ms();
  r.chase_ns = chase_probe_ns();
  return r;
}

int online_cpus() { return static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)); }

namespace {

std::vector<int> affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

}  // namespace

std::string affinity_list() {
  const std::vector<int> cpus = affinity_cpus();
  std::string out;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    std::size_t last = i;
    while (last + 1 < cpus.size() && cpus[last + 1] == cpus[last] + 1) ++last;
    if (!out.empty()) out += ',';
    out += std::to_string(cpus[i]);
    if (last > i) out += '-' + std::to_string(cpus[last]);
    i = last;
  }
  return out.empty() ? "?" : out;
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return a + " " + b + " " + c;
}

void reset_peak_rss() {
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace wheels::perfbench
