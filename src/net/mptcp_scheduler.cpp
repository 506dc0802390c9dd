#include "net/mptcp_scheduler.h"

#include <algorithm>
#include <stdexcept>

namespace wheels::net {

MptcpConnection::MptcpConnection(Rng rng, std::size_t subflows,
                                 MptcpScheduler scheduler)
    : scheduler_(scheduler) {
  if (subflows == 0) {
    throw std::invalid_argument("MptcpConnection: need >= 1 subflow");
  }
  flows_.reserve(subflows);
  for (std::size_t i = 0; i < subflows; ++i) {
    flows_.emplace_back(rng.fork(i));  // wheels-rng: dynamic(one stream per subflow index)
  }
}

MptcpStepResult MptcpConnection::step(
    Millis dt, const std::vector<SubflowInput>& links) {
  if (links.size() != flows_.size()) {
    throw std::invalid_argument("MptcpConnection: link count mismatch");
  }
  MptcpStepResult out;
  switch (scheduler_) {
    case MptcpScheduler::MinRtt: {
      // Each subflow runs its own congestion control against its own
      // path; a backlogged sender keeps every window full, so the bonded
      // goodput is the sum, minus a small scheduling overhead that grows
      // when paths are heavily imbalanced (head-of-line reinjections).
      double total = 0.0;
      double fastest = 0.0;
      for (std::size_t i = 0; i < flows_.size(); ++i) {
        const double b =
            flows_[i].step(dt, links[i].link_rate, links[i].base_rtt);
        total += b;
        fastest = std::max(fastest, b);
      }
      const double slow_share = total > 0.0 ? 1.0 - fastest / total : 0.0;
      // Up to 10% of the slow-path contribution is spent on reinjection.
      const double overhead = 0.1 * slow_share * (total - fastest);
      out.delivered_bytes = total - overhead;
      out.wasted_bytes = overhead;
      break;
    }
    case MptcpScheduler::Redundant: {
      // Every byte rides every subflow: goodput is the best path, the
      // rest is overhead.
      double best = 0.0, total = 0.0;
      for (std::size_t i = 0; i < flows_.size(); ++i) {
        const double b =
            flows_[i].step(dt, links[i].link_rate, links[i].base_rtt);
        total += b;
        best = std::max(best, b);
      }
      out.delivered_bytes = best;
      out.wasted_bytes = total - best;
      break;
    }
  }
  return out;
}

BondedRunResult run_bonded(
    Rng rng, const std::vector<std::vector<SubflowInput>>& per_slot_inputs,
    Millis dt, Millis window, MptcpScheduler scheduler) {
  BondedRunResult out;
  if (per_slot_inputs.empty()) return out;
  const std::size_t n_sub = per_slot_inputs.front().size();

  MptcpConnection bonded(rng.fork("bonded"), n_sub, scheduler);
  // One independent single-path flow per operator, to find the best lone
  // subscription over the same inputs.
  std::vector<CubicFlow> singles;
  for (std::size_t i = 0; i < n_sub; ++i) {
    // wheels-rng: dynamic(one stream per single-path flow index)
    singles.emplace_back(rng.fork("single").fork(i));
  }

  // Per-window series for the bond and for each lone subscription; the
  // "best single" is the one subscription that moved the most data over
  // the whole run (you cannot switch SIMs per half-second).
  double win_bonded = 0.0;
  std::vector<double> win_single(n_sub, 0.0);
  std::vector<std::vector<double>> single_series(n_sub);
  std::vector<double> single_total(n_sub, 0.0);
  Millis win_elapsed{0.0};
  for (const auto& links : per_slot_inputs) {
    if (links.size() != n_sub) {
      throw std::invalid_argument("run_bonded: ragged input");
    }
    win_bonded += bonded.step(dt, links).delivered_bytes;
    for (std::size_t i = 0; i < n_sub; ++i) {
      win_single[i] +=
          singles[i].step(dt, links[i].link_rate, links[i].base_rtt);
    }
    win_elapsed += dt;
    if (win_elapsed.value >= window.value) {
      out.bonded_mbps.push_back(win_bonded * 8.0 / win_elapsed.value /
                                1e3);
      out.bonded_total_gb += win_bonded / 1e9;
      for (std::size_t i = 0; i < n_sub; ++i) {
        single_series[i].push_back(win_single[i] * 8.0 /
                                   win_elapsed.value / 1e3);
        single_total[i] += win_single[i] / 1e9;
        win_single[i] = 0.0;
      }
      win_bonded = 0.0;
      win_elapsed = Millis{0.0};
    }
  }
  const auto best_it =
      std::max_element(single_total.begin(), single_total.end());
  const auto best_idx =
      static_cast<std::size_t>(best_it - single_total.begin());
  out.best_single_mbps = std::move(single_series[best_idx]);
  out.best_single_total_gb = *best_it;
  return out;
}

}  // namespace wheels::net
