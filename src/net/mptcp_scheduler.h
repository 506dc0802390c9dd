// A dynamic MPTCP-style bonding simulation (extension of §8 rec. (2)).
//
// aggregate_instant() in mptcp.h answers the static what-if ("sum of
// concurrent samples"); this module actually *runs* one CUBIC subflow per
// operator over the per-slot links and schedules application data across
// them, which captures what a real bonded transport would lose to
// per-path congestion control, stalls, and reinjection overhead.
#pragma once

#include <vector>

#include "core/rng.h"
#include "core/units.h"
#include "net/tcp_cubic.h"

namespace wheels::net {

enum class MptcpScheduler : std::uint8_t {
  MinRtt,      // classic: fill the lowest-RTT subflow's window first
  Redundant,   // duplicate on all subflows (latency-optimal, wasteful)
};

struct SubflowInput {
  Mbps link_rate{0.0};   // instantaneous capacity of this path
  Millis base_rtt{50.0};
};

struct MptcpStepResult {
  double delivered_bytes = 0.0;  // application goodput this slot
  double wasted_bytes = 0.0;     // redundant duplicates (Redundant mode)
};

class MptcpConnection {
 public:
  MptcpConnection(Rng rng, std::size_t subflows,
                  MptcpScheduler scheduler = MptcpScheduler::MinRtt);

  // Advance all subflows by dt over their current links.
  MptcpStepResult step(Millis dt, const std::vector<SubflowInput>& links);

  [[nodiscard]] std::size_t subflow_count() const { return flows_.size(); }
  [[nodiscard]] const CubicFlow& subflow(std::size_t i) const {
    return flows_.at(i);
  }

 private:
  std::vector<CubicFlow> flows_;
  MptcpScheduler scheduler_;
};

// Convenience: bonded goodput (Mbps) over aligned per-operator rate/rtt
// series sampled at `dt`, alongside the best single subflow for the same
// inputs. Series must be equal length.
struct BondedRunResult {
  std::vector<double> bonded_mbps;       // per sample window
  std::vector<double> best_single_mbps;  // best lone flow, same windows
  double bonded_total_gb = 0.0;
  double best_single_total_gb = 0.0;
};

[[nodiscard]] BondedRunResult run_bonded(
    Rng rng, const std::vector<std::vector<SubflowInput>>& per_slot_inputs,
    Millis dt, Millis window,
    MptcpScheduler scheduler = MptcpScheduler::MinRtt);

}  // namespace wheels::net
