// Host facts and probes recorded beside every benchmark result.
//
// None of this is gated. It exists so a slow run can be blamed on the host
// (a busy co-tenant, stolen CPU time, a thrashed shared cache) rather than
// on the program: the fixed ALU loop tracks CPU speed, the pointer chase
// over a buffer larger than the private caches tracks shared-cache and
// memory pressure, and the steal delta tracks preemption by the hypervisor.
#pragma once

#include <cstdint>
#include <string>

namespace wheels::perfbench {

struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

// Aggregate "cpu" line of /proc/stat; zeros when unreadable.
[[nodiscard]] CpuTicks read_cpu_ticks();

struct ProbeResult {
  double alu_ms = 0.0;        // fixed xorshift loop
  double chase_ns = 0.0;      // per dependent load over kChaseBytes
};

inline constexpr std::size_t kChaseBytes = 8u << 20;

[[nodiscard]] ProbeResult run_probes();

// Online CPUs, the affinity mask as a CPU list ("0-3"), and /proc/loadavg's
// first three fields.
[[nodiscard]] int online_cpus();
[[nodiscard]] std::string affinity_list();
[[nodiscard]] std::string load_average();

// Restart the VmHWM high-water mark at the current RSS (writes 5 to
// /proc/self/clear_refs), so a later peak_rss_mb() reads the peak of the
// measured phase. Heap the allocator kept from earlier phases still counts,
// as it does in any long-running process.
void reset_peak_rss();
[[nodiscard]] double peak_rss_mb();

}  // namespace wheels::perfbench
