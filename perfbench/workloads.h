// The three benchmark workloads.
//
// Every workload runs through the entry points users hit:
// dataset::CampaignProvider (cold-library), the figure/table printers of
// bench/ run as their own processes (warm-figures), and serve::Client
// against an in-process serve::Daemon (serve-hot). Each run works in its
// own empty directory (the current directory), so caches and sockets never
// leak between runs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace wheels::perfbench {

struct RunOptions {
  std::uint64_t seed = 42;
  int seconds = 10;
  bool trace = false;
  std::string printer_dir;  // where the bench/ printers were built
};

// Counter and gauge values plus "<name>.sum" / "<name>.count" for every
// histogram of an obs metrics snapshot.
using Counters = std::map<std::string, std::int64_t>;

// A span another process recorded, placed in this process's clock (both
// read the system-wide monotonic clock).
struct ChildSpan {
  std::string name, cat;
  std::int64_t pid = 0, tid = 0, start_ns = 0, end_ns = 0;
};

// Correctness bookkeeping: every checked operation counts as attempted; a
// mismatch, a typed error or a transport failure counts as failed.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> messages;  // the first few failures
  void check(bool ok, const std::string& what);
};

struct PassResult {
  double pass_s = 0.0;
  // One latency per "query": the scenario library generated
  // (cold-library), a printer process run (warm-figures), a request
  // answered (serve-hot).
  std::vector<double> query_ms;
  // Work done in child processes, which this process's obs registry and
  // VmHWM cannot see: their summed metrics and their largest peak RSS
  // (negative when the pass ran no child).
  Counters child_counters;
  double child_peak_rss_mb = -1.0;
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Worker threads the workload's timed work runs on.
  [[nodiscard]] virtual int jobs() const = 0;
  // Set-up samples per run; the median is reported and the last set-up
  // made is kept.
  [[nodiscard]] virtual int setup_reps() const = 0;
  // More set-up samples taken before every pass, each pass then running on
  // the set-up made last. For a set-up too short to time steadily: the
  // samples then spread over the run instead of one moment of the host.
  [[nodiscard]] virtual int setup_reps_per_pass() const { return 0; }
  // Set-ups timed into one sample (the sample is their mean), so a
  // sub-millisecond set-up is timed over enough like work to be steady.
  [[nodiscard]] virtual int setup_batch() const { return 1; }
  // Whether the set-ups before the kept one are made in forked processes,
  // so the heap they leave behind does not count in this process's RSS.
  [[nodiscard]] virtual bool isolate_setups() const { return false; }
  // Like passes timed per run; every end-to-end figure is a median over them.
  [[nodiscard]] virtual int passes() const = 0;
  // Whether every pass runs the same queries in the same order, so that
  // query i of one pass repeats query i of another.
  [[nodiscard]] virtual bool repeats_queries() const = 0;

  // Build everything the passes need. `rep` numbers the set-up so each one
  // gets its own directory; teardown() drops all of it again, and runs
  // before the next set-up is made.
  virtual void setup(int rep, Checks& checks) = 0;
  virtual void teardown() = 0;

  // One timed pass over the set-up state. Untraced passes are numbered
  // 0..passes()-1; a traced run interleaves them with traced passes
  // numbered passes()..2*passes()-1, pass k + passes() doing pass k's work.
  virtual PassResult pass(int index, Checks& checks) = 0;

  // Traced runs only: extra per-request measurements after the passes.
  virtual void replay(Checks&) {}

  // Workload-specific per-layer metrics of the traced passes.
  virtual void layer_metrics(std::map<std::string, double>&) const {}

  // Spans child processes recorded in traced phases, and the obs metrics
  // of the child processes the last set-up ran.
  [[nodiscard]] const std::vector<ChildSpan>& child_spans() const {
    return child_spans_;
  }
  [[nodiscard]] const Counters& setup_child_counters() const {
    return setup_child_counters_;
  }

  // Exact work counts the obs registry cannot see, summed over every pass
  // so far (the caller takes differences).
  [[nodiscard]] virtual std::int64_t apps_runs() const { return 0; }
  [[nodiscard]] virtual std::int64_t analysis_records() const { return 0; }

  // Input sizes, digests and anything else worth keeping, as JSON.
  [[nodiscard]] virtual std::string details() const = 0;

 protected:
  std::vector<ChildSpan> child_spans_;
  Counters setup_child_counters_;
  std::int64_t next_pid_ = 2;  // trace pid of the next child (1 is ours)
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const RunOptions& opts);

// The process cold-library runs per scenario: the scenario's eight datasets
// into `cache` at jobs=2, then its checks (a line of attempted, failed, app
// runs and this process's peak RSS in MiB, then one failure per line) and
// obs exports (spans when `traced`) into files starting with `out`.
// Returns the process's exit code.
int generate_scenario(const std::string& scenario, const std::string& cache,
                      const std::string& out, bool traced);

}  // namespace wheels::perfbench
