#include "workloads.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>
#include <variant>

#include "analysis/performance.h"
#include "apps/app_campaign.h"
#include "core/rng.h"
#include "core/stats.h"
#include "core/thread_pool.h"
#include "dataset/cache.h"
#include "dataset/fingerprint.h"
#include "dataset/provider.h"
#include "dataset/serialize.h"
#include "host.h"
#include "ledger.h"
#include "obs/runtime.h"
#include "obs/trace.h"
#include "scenario/spec.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "trip/campaign.h"

extern char** environ;

namespace wheels::perfbench {

void Checks::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (messages.size() < 8) messages.push_back(what);
}

namespace {

namespace fs = std::filesystem;
using dataset::DatasetKind;

constexpr int kStride = 64;
// Worker threads for every cold simulation: of jobs 1, 2 and 4, jobs=2
// varied least between repeated runs on the 4-core reference host (see
// README.md).
constexpr int kColdJobs = 2;
constexpr std::uint64_t kGoldenSeed = 42;
constexpr std::uint64_t kGoldenCampaign = 0xbba11b2dda6d2b08ULL;

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

// Every scenario runs with the workload seed, so --seed changes every
// dataset the benchmark builds.
scenario::ScenarioSpec load_spec(const std::string& name, std::uint64_t seed) {
  const obs::Span span("scenario.load", "scenario");
  scenario::ScenarioSpec spec = scenario::load_scenario(name);
  spec.seed = seed;
  return spec;
}

struct Configs {
  trip::CampaignConfig campaign;
  apps::AppCampaignConfig apps;
};

Configs configs_for(const scenario::ScenarioSpec& spec) {
  const obs::Span span("scenario.from_scenario", "scenario");
  return {trip::CampaignConfig::from_scenario(spec, kStride),
          apps::AppCampaignConfig::from_scenario(spec, kStride)};
}

// The eight datasets `wheels_campaign generate` materializes per scenario.
struct DatasetRef {
  DatasetKind kind;
  ran::OperatorId op;
};

constexpr DatasetRef kDatasets[8] = {
    {DatasetKind::Campaign, ran::OperatorId::Verizon},
    {DatasetKind::StaticBaseline, ran::OperatorId::Verizon},
    {DatasetKind::StaticBaseline, ran::OperatorId::TMobile},
    {DatasetKind::StaticBaseline, ran::OperatorId::ATT},
    {DatasetKind::AppCampaign, ran::OperatorId::Verizon},
    {DatasetKind::AppStaticBaseline, ran::OperatorId::Verizon},
    {DatasetKind::AppStaticBaseline, ran::OperatorId::TMobile},
    {DatasetKind::AppStaticBaseline, ran::OperatorId::ATT},
};

// What resolving a scenario's datasets hands back; the datasets live as
// long as the caller keeps this.
struct Resolved {
  std::shared_ptr<const trip::CampaignResult> campaign;
  std::array<std::shared_ptr<const trip::StaticBaseline>, 3> statics;
  std::shared_ptr<const apps::AppCampaignResult> apps;
  std::array<std::shared_ptr<const std::vector<apps::AppRunRecord>>, 3>
      app_statics;
};

bool whole_drive(DatasetKind kind) {
  return kind == DatasetKind::Campaign || kind == DatasetKind::AppCampaign;
}

std::string dataset_key(const std::string& scenario, const DatasetRef& d) {
  std::string key = scenario + "/" + std::string(dataset::to_string(d.kind));
  if (!whole_drive(d.kind)) key += "/" + std::string(to_string(d.op));
  return key;
}

std::string_view resolve_span(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::Campaign: return "dataset.resolve.campaign";
    case DatasetKind::StaticBaseline: return "dataset.resolve.static-baseline";
    case DatasetKind::AppCampaign: return "dataset.resolve.app-campaign";
    case DatasetKind::AppStaticBaseline:
      return "dataset.resolve.app-static-baseline";
  }
  return "dataset.resolve.unknown";
}

// Resolve one dataset into `in` through the provider's public API, inside
// a dataset.resolve.<kind> span. Returns the app run records it holds.
std::int64_t resolve_into(dataset::CampaignProvider& p, const Configs& c,
                          const DatasetRef& d, Resolved& in) {
  const obs::Span span(resolve_span(d.kind), "dataset");
  const auto i = static_cast<std::size_t>(d.op);
  switch (d.kind) {
    case DatasetKind::Campaign:
      in.campaign = p.resolve(c.campaign);
      return 0;
    case DatasetKind::StaticBaseline:
      in.statics[i] = p.resolve_static(c.campaign, d.op);
      return 0;
    case DatasetKind::AppCampaign: {
      in.apps = p.resolve_apps(c.apps);
      std::int64_t n = 0;
      for (const auto& runs : in.apps->runs) n += std::ssize(runs);
      return n;
    }
    case DatasetKind::AppStaticBaseline:
      in.app_statics[i] = p.resolve_apps_static(c.apps, d.op);
      return std::ssize(*in.app_statics[i]);
  }
  return 0;
}

// Resolve a scenario's eight datasets as one parallel task list at jobs=2,
// the way `generate` does. Failures are reported per dataset.
std::int64_t resolve_all(dataset::CampaignProvider& p, const Configs& c,
                         Resolved& in, Checks& checks,
                         const std::string& scenario) {
  std::array<std::int64_t, std::size(kDatasets)> runs{};
  std::array<std::string, std::size(kDatasets)> errors;
  parallel_for_each(kColdJobs, std::size(kDatasets), [&](std::size_t i) {
    try {
      runs[i] = resolve_into(p, c, kDatasets[i], in);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  });
  std::int64_t total = 0;
  for (std::size_t i = 0; i < std::size(kDatasets); ++i) {
    checks.check(errors[i].empty(), "resolve " +
                                        dataset_key(scenario, kDatasets[i]) +
                                        ": " + errors[i]);
    total += runs[i];
  }
  return total;
}

std::uint64_t file_fingerprint(const Configs& c, DatasetKind kind) {
  switch (kind) {
    case DatasetKind::Campaign: return dataset::fingerprint(c.campaign);
    case DatasetKind::StaticBaseline:
      return dataset::fingerprint_static(c.campaign);
    case DatasetKind::AppCampaign: return dataset::fingerprint(c.apps);
    case DatasetKind::AppStaticBaseline:
      return dataset::fingerprint_static(c.apps);
  }
  return 0;
}

template <typename T>
bool reencodes(std::string_view payload) {
  T value;
  return dataset::decode(payload, value) && dataset::encode(value) == payload;
}

// Validate a cache file end to end: container header and checksum, decode,
// and re-encode to the same payload bytes. Returns the payload's FNV-1a
// digest, or an error message.
std::variant<std::uint64_t, std::string> check_file(const std::string& path,
                                                    DatasetKind kind,
                                                    std::uint64_t fp,
                                                    std::int64_t& bytes) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return "missing " + path;
  const std::string file{std::istreambuf_iterator<char>(is), {}};
  bytes += std::ssize(file);
  const auto payload = dataset::unwrap_dataset(file, kind, fp);
  if (!payload) return "invalid container " + path;
  bool ok = false;
  switch (kind) {
    case DatasetKind::Campaign:
      ok = reencodes<trip::CampaignResult>(*payload);
      break;
    case DatasetKind::StaticBaseline:
      ok = reencodes<trip::StaticBaseline>(*payload);
      break;
    case DatasetKind::AppCampaign:
      ok = reencodes<apps::AppCampaignResult>(*payload);
      break;
    case DatasetKind::AppStaticBaseline:
      ok = reencodes<std::vector<apps::AppRunRecord>>(*payload);
      break;
  }
  if (!ok) return "decode/re-encode mismatch " + path;
  return dataset::fnv1a(*payload);
}

std::string digest_map_json(const std::map<std::string, std::uint64_t>& m) {
  JsonObject o;
  for (const auto& [k, v] : m) o.str(k, hex(v));
  return o.done();
}

std::int64_t dir_bytes(const std::string& dir) {
  std::int64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file()) total += static_cast<std::int64_t>(e.file_size());
  }
  return total;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), {}};
}

// Wait for a child process to end; its exit code, or -1 when it did not
// exit normally.
int reap(pid_t pid, rusage* usage) {
  int status = 0;
  while (::wait4(pid, &status, 0, usage) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// How a child process reports its checks: a first line of attempted,
// failed and then `values`, and one failure per line after it.
void write_result(const std::string& path, const Checks& checks,
                  const std::vector<double>& values) {
  std::ofstream out(path);
  out << checks.attempted << ' ' << checks.failed;
  for (const double v : values) out << ' ' << json_number(v);
  out << '\n';
  for (const auto& m : checks.messages) out << m << '\n';
}

// Adds a child's reported checks to `checks` and returns its values.
std::vector<double> take_result(const std::string& path, Checks& checks) {
  std::istringstream in(read_file(path));
  std::string first;
  std::getline(in, first);
  std::istringstream head(first);
  std::int64_t attempted = 0, failed = 0;
  head >> attempted >> failed;
  checks.attempted += attempted;
  checks.failed += failed;
  std::vector<double> values;
  for (double v = 0.0; head >> v;) values.push_back(v);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && checks.messages.size() < 8) {
      checks.messages.push_back(line);
    }
  }
  return values;
}

// What a forked process did, read back after it ended.
struct Forked {
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;  // the process's own (wait4)
  std::int64_t value = 0;    // what `work` returned
  Counters counters;         // obs metrics over the process's life
  std::vector<ChildSpan> spans;  // when tracing, placed from the fork on
};

// Run `work` in a process forked from this one; no other thread may be
// running. The process hands its checks, `work`'s result and its obs
// exports back through files starting with `out`: its failures count here,
// and an unclean exit counts as one.
template <typename Work>
Forked run_forked(const std::string& out, std::int64_t trace_pid,
                  const std::string& what, Checks& checks, Work&& work) {
  const bool traced = obs::trace_enabled();
  const Counters before = capture_counters();
  Forked f;
  rusage usage{};
  const std::int64_t t0 = obs::now_ns();
  const pid_t pid = ::fork();
  if (pid == 0) {
    obs::clear_trace_events();
    Checks mine;
    const std::int64_t value = work(mine);
    write_result(out + "result", mine, {static_cast<double>(value)});
    obs::set_metrics_export_path(out + "metrics");
    if (traced) obs::set_trace_export_path(out + "trace");
    std::_Exit(obs::flush_exports() ? 0 : 1);
  }
  const int code = pid > 0 ? reap(pid, &usage) : -1;
  f.wall_s = static_cast<double>(obs::now_ns() - t0) / 1e9;
  f.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  checks.check(code == 0, what + ": process exited with " + std::to_string(code));
  const std::vector<double> values = take_result(out + "result", checks);
  if (!values.empty()) f.value = static_cast<std::int64_t>(values[0]);
  try {
    f.counters =
        counter_delta(before, parse_metrics_jsonl(read_file(out + "metrics")));
    // The process's first span opens right after the fork.
    if (traced) f.spans = read_chrome_trace(read_file(out + "trace"), trace_pid, t0);
  } catch (const std::exception& e) {
    checks.check(false, what + ": unreadable exports: " + e.what());
  }
  for (const char* name : {"result", "metrics", "trace"}) fs::remove(out + name);
  return f;
}

struct ChildRun {
  std::int64_t start_ns = 0;
  double wall_ms = 0.0;
  double peak_rss_mb = 0.0;
  int exit_code = -1;  // -1 when it did not start or did not exit normally
};

// Run a program to completion with its stdout and stderr in files; the
// wall time runs from spawn to reaped exit. Linux seeds a spawned process's
// peak RSS with its parent's, so `peak_rss_mb` is at least this process's
// high-water mark.
ChildRun run_child(const std::vector<std::string>& argv,
                   const std::vector<std::string>& env,
                   const std::string& out_path, const std::string& err_path) {
  std::vector<char*> args, envp;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  for (const auto& e : env) envp.push_back(const_cast<char*>(e.c_str()));
  envp.push_back(nullptr);
  posix_spawn_file_actions_t files;
  posix_spawn_file_actions_init(&files);
  posix_spawn_file_actions_addopen(&files, 1, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&files, 2, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ChildRun r;
  pid_t pid = 0;
  r.start_ns = obs::now_ns();
  const int rc = ::posix_spawn(&pid, args[0], &files, nullptr, args.data(),
                               envp.data());
  posix_spawn_file_actions_destroy(&files);
  if (rc != 0) return r;
  rusage usage{};
  r.exit_code = reap(pid, &usage);
  r.wall_ms = ms_between(r.start_ns, obs::now_ns());
  r.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return r;
}

// The environment of a child process: this one's without WHEELS_* knobs
// (the benchmark sets every one it needs), plus `extra`.
std::vector<std::string> child_environment(
    std::initializer_list<std::string> extra) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::string_view(*e).rfind("WHEELS_", 0) != 0) env.emplace_back(*e);
  }
  env.insert(env.end(), extra.begin(), extra.end());
  return env;
}

// --- cold-library -----------------------------------------------------------

constexpr const char* kLibrary[] = {"commuter-corridor", "urban-loop",
                                    "highway-convoy", "eu-band-plan",
                                    "degraded-coverage-storm"};
// The library keeps the golden seed; --seed orders the scenarios. A new
// scenario seed changes how long each simulation runs, and with it how the
// campaign and app campaign of a scenario overlap at jobs=2 and so the
// peak RSS: it ranged over 55-86 MiB between scenario seeds.
constexpr std::uint64_t kLibrarySeed = kGoldenSeed;

class ColdLibrary final : public Workload {
 public:
  explicit ColdLibrary(const RunOptions& o)
      : o_(o), passes_(std::max(1, o.seconds / 6)) {}

  int jobs() const override { return kColdJobs; }
  // A set-up is some 30-50 us of directory creation and scenario file reads,
  // whose cost moved 3x with the host's state in phases of about a second.
  // Each sample is therefore the mean of a batch, and samples are taken
  // before every pass as well as up front, spreading them over the run.
  int setup_reps() const override { return 3; }
  int setup_reps_per_pass() const override { return 4; }
  int setup_batch() const override { return 1000; }
  int passes() const override { return passes_; }
  bool repeats_queries() const override { return true; }

  // An empty cache directory for the next pass, and the scenarios loaded.
  void setup(int rep, Checks&) override {
    cache_ = "cold-" + std::to_string(rep);
    fs::remove_all(cache_);
    fs::create_directories(cache_);
    std::vector<std::string> order(std::begin(kLibrary), std::end(kLibrary));
    Rng rng = Rng(o_.seed).fork("library-order");
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.uniform_index(i + 1)]);
    }
    specs_.clear();
    for (const auto& name : order) specs_.push_back(load_spec(name, kLibrarySeed));
  }

  void teardown() override {
    fs::remove_all(cache_);
    specs_.clear();
  }

  // Each scenario is generated by a fresh process of this program, as one
  // `wheels_campaign generate --scenario` run would (generate_scenario()):
  // its peak RSS is its own, and no heap one scenario or this process
  // leaves behind counts in the next.
  PassResult pass(int index, Checks& checks) override {
    const bool traced = obs::trace_enabled();
    const std::string out = cache_ + ".";
    PassResult r;
    r.child_peak_rss_mb = 0.0;
    for (const auto& spec : specs_) {
      const std::string what = spec.name + " pass " + std::to_string(index);
      const ChildRun run = run_child(
          {"/proc/self/exe", "--generate", spec.name, "--cache", cache_,
           "--out", out, "--trace", traced ? "1" : "0"},
          env_, out + "stdout", out + "stderr");
      r.pass_s += run.wall_ms / 1e3;
      checks.check(run.exit_code == 0,
                   what + ": exited with " + std::to_string(run.exit_code));
      // App runs and the process's peak RSS.
      const std::vector<double> values = take_result(out + "result", checks);
      if (values.size() == 2) {
        apps_runs_ += static_cast<std::int64_t>(values[0]);
        r.child_peak_rss_mb = std::max(r.child_peak_rss_mb, values[1]);
      }
      try {
        for (const auto& [k, v] :
             parse_metrics_jsonl(read_file(out + "metrics"))) {
          r.child_counters[k] += v;
        }
        if (traced) {
          // The process's first span opens after its start-up; it is
          // placed at the spawn.
          const auto spans = read_chrome_trace(read_file(out + "trace"),
                                               next_pid_++, run.start_ns);
          child_spans_.insert(child_spans_.end(), spans.begin(), spans.end());
        }
      } catch (const std::exception& e) {
        checks.check(false, what + ": unreadable exports: " + e.what());
      }
      for (const char* f : {"result", "metrics", "trace", "stdout", "stderr"}) {
        fs::remove(out + f);
      }
    }
    // The query is the whole library: the five scenarios differ too much
    // in size for a percentile over them to mean anything.
    r.query_ms.push_back(r.pass_s * 1e3);
    check_cache(checks);
    return r;
  }

  std::int64_t apps_runs() const override { return apps_runs_; }

  std::string details() const override {
    return JsonObject()
        .raw("scenarios", json_list(scenario_names()))
        .integer("datasets_per_pass", std::ssize(specs_) * 8)
        .integer("dataset_bytes_per_pass", bytes_per_pass_)
        .raw("dataset_digests", digest_map_json(digests_))
        .done();
  }

 private:
  // Every file the pass wrote must validate, decode and re-encode to the
  // same bytes, and every pass must write the same bytes.
  void check_cache(Checks& checks) {
    const dataset::DatasetCache cache(cache_);
    std::int64_t bytes = 0;
    for (const auto& spec : specs_) {
      const Configs c = configs_for(spec);
      for (const DatasetRef& d : kDatasets) {
        const std::uint64_t fp = file_fingerprint(c, d.kind);
        const auto got =
            check_file(cache.path_for(d.kind, fp, d.op), d.kind, fp, bytes);
        const std::string key = dataset_key(spec.name, d);
        if (const auto* err = std::get_if<std::string>(&got)) {
          checks.check(false, *err);
          continue;
        }
        const std::uint64_t digest = std::get<std::uint64_t>(got);
        const auto [it, fresh] = digests_.emplace(key, digest);
        checks.check(fresh || it->second == digest,
                     key + " differs between passes");
      }
    }
    bytes_per_pass_ = bytes;
  }

  // In pass order.
  std::vector<std::string> scenario_names() const {
    std::vector<std::string> names;
    for (const auto& s : specs_) names.push_back(s.name);
    return names;
  }

  RunOptions o_;
  int passes_;
  std::string cache_;
  std::vector<scenario::ScenarioSpec> specs_;
  std::vector<std::string> env_ = child_environment({});
  std::int64_t apps_runs_ = 0;
  std::int64_t bytes_per_pass_ = 0;
  std::map<std::string, std::uint64_t> digests_;
};

// --- warm-figures -----------------------------------------------------------

// The datasets the printers read: what bench::campaign_config and
// bench::app_campaign_config build for `bench_x 64`. The printers fix the
// seed at 42, so --seed cannot change them.
Configs printer_configs() {
  Configs c;
  c.campaign.seed = kGoldenSeed;
  c.campaign.cycle_stride = kStride;
  c.apps.seed = kGoldenSeed;
  c.apps.cycle_stride = kStride;
  return c;
}

// The provider's provenance notes on a printer's stderr, one
// "[dataset] <kind> <fingerprint>: <source>" line per dataset resolved.
struct Notes {
  std::map<std::string, std::int64_t> hits;  // by dataset kind
  std::int64_t simulated = 0;
};

Notes parse_notes(std::string_view err) {
  Notes n;
  std::size_t at = 0;
  while (at < err.size()) {
    std::size_t end = err.find('\n', at);
    if (end == std::string_view::npos) end = err.size();
    const std::string_view line = err.substr(at, end - at);
    at = end + 1;
    constexpr std::string_view kTag = "[dataset] ";
    if (line.rfind(kTag, 0) != 0) continue;
    const std::string_view rest = line.substr(kTag.size());
    const std::string kind(rest.substr(0, rest.find(' ')));
    if (rest.ends_with(": cache hit")) {
      ++n.hits[kind];
    } else if (rest.ends_with(": simulating")) {
      ++n.simulated;
    }
  }
  return n;
}

template <typename T>
bool timed_decode(std::string_view payload, Accum& into) {
  T value;
  const Timed t(into);
  return dataset::decode(payload, value);
}

bool decode_kind(DatasetKind kind, std::string_view payload, Accum& into) {
  switch (kind) {
    case DatasetKind::Campaign:
      return timed_decode<trip::CampaignResult>(payload, into);
    case DatasetKind::StaticBaseline:
      return timed_decode<trip::StaticBaseline>(payload, into);
    case DatasetKind::AppCampaign:
      return timed_decode<apps::AppCampaignResult>(payload, into);
    case DatasetKind::AppStaticBaseline:
      return timed_decode<std::vector<apps::AppRunRecord>>(payload, into);
  }
  return false;
}

// Decodes of each dataset per kind in a traced run's replay.
constexpr int kDecodeReps = 3;

class WarmFigures final : public Workload {
 public:
  // One pass is one round of "regenerate every figure": every printer of
  // bench/ run once as its own process (about 4 s on the reference host).
  explicit WarmFigures(const RunOptions& o)
      : o_(o), rounds_(std::max(1, o.seconds / 3)) {}

  // The printers resolve their datasets at jobs=1.
  int jobs() const override { return 1; }
  // Set-up is a whole cold paper-default simulation (8-15 s); two fit
  // the run-time budget of the benchmark.
  int setup_reps() const override { return 2; }
  int passes() const override { return rounds_; }
  bool repeats_queries() const override { return true; }

  void setup(int rep, Checks& checks) override {
    if (printers_.empty()) find_printers(checks);
    cache_ = "warm-" + std::to_string(rep);
    fs::remove_all(cache_);
    fs::create_directories(cache_);
    // What `wheels_campaign generate --stride 64 --apps-stride 64` writes:
    // the eight datasets as one parallel task list, in a forked process as
    // that command is its own. This process then never holds the
    // simulation's heap, which the printers' peak RSS would otherwise
    // include: a spawned process's VmHWM starts from its parent's.
    const Forked f = run_forked(
        cache_ + ".", next_pid_++, "warm set-up", checks, [&](Checks& mine) {
          dataset::ProviderOptions po;
          po.cache_dir = cache_;
          po.jobs = kColdJobs;
          dataset::CampaignProvider provider(po);
          Resolved in;
          return resolve_all(provider, configs_, in, mine, "paper-default");
        });
    setup_child_counters_ = f.counters;
    child_spans_.insert(child_spans_.end(), f.spans.begin(), f.spans.end());
    // The campaign file's payload is the encoded campaign.
    std::int64_t bytes = 0;
    const std::uint64_t fp = dataset::fingerprint(configs_.campaign);
    const auto got = check_file(
        dataset::DatasetCache(cache_).path_for(DatasetKind::Campaign, fp,
                                               ran::OperatorId::Verizon),
        DatasetKind::Campaign, fp, bytes);
    if (const auto* err = std::get_if<std::string>(&got)) {
      checks.check(false, *err);
      return;
    }
    campaign_digest_ = std::get<std::uint64_t>(got);
    checks.check(campaign_digest_ == kGoldenCampaign,
                 "paper-default campaign digest " + hex(campaign_digest_) +
                     " != golden " + hex(kGoldenCampaign));
    dataset_bytes_ = dir_bytes(cache_);
  }

  void teardown() override { fs::remove_all(cache_); }

  PassResult pass(int index, Checks& checks) override {
    const bool traced = obs::trace_enabled();
    const std::string dir = "round-" + std::to_string(index);
    fs::create_directories(dir);
    std::vector<std::string> env = env_;
    env.push_back("WHEELS_DATASET_DIR=" + cache_);
    std::vector<ChildRun> runs(order_.size());
    PassResult r;
    const std::int64_t t0 = obs::now_ns();
    for (std::size_t i = 0; i < order_.size(); ++i) {
      const std::string base = dir + "/" + printers_[order_[i]];
      std::vector<std::string> child_env = env;
      // Every printer writes its metrics snapshot at exit (a few KB), so
      // the work counts are exact in every run; only traced rounds also
      // record spans.
      child_env.push_back("WHEELS_METRICS=" + base + ".metrics");
      if (traced) child_env.push_back("WHEELS_TRACE=" + base + ".trace");
      runs[i] = run_child(
          {o_.printer_dir + "/" + printers_[order_[i]], std::to_string(kStride)},
          child_env, base + ".out", base + ".err");
      r.query_ms.push_back(runs[i].wall_ms);
    }
    r.pass_s = static_cast<double>(obs::now_ns() - t0) / 1e9;

    for (std::size_t i = 0; i < order_.size(); ++i) {
      const std::string& name = printers_[order_[i]];
      const std::string base = dir + "/" + name;
      const std::string what = name + " round " + std::to_string(index);
      checks.check(runs[i].exit_code == 0,
                   what + " exited with " + std::to_string(runs[i].exit_code));
      const Notes notes = parse_notes(read_file(base + ".err"));
      checks.check(notes.simulated == 0,
                   what + " simulated instead of loading the warm cache");
      const std::uint64_t digest = dataset::fnv1a(read_file(base + ".out"));
      const auto [it, fresh] = digests_.emplace(name, digest);
      checks.check(fresh || it->second == digest,
                   what + ": output differs from an earlier round");
      r.child_peak_rss_mb = std::max(r.child_peak_rss_mb, runs[i].peak_rss_mb);
      double& peak = peak_rss_mb_[name];
      peak = std::max(peak, runs[i].peak_rss_mb);
      try {
        for (const auto& [k, v] :
             parse_metrics_jsonl(read_file(base + ".metrics"))) {
          r.child_counters[k] += v;
        }
        if (traced) {
          // The printer's first span opens after process start-up; it is
          // placed at the spawn.
          const auto spans = read_chrome_trace(read_file(base + ".trace"),
                                               next_pid_++, runs[i].start_ns);
          child_spans_.insert(child_spans_.end(), spans.begin(), spans.end());
        }
      } catch (const std::exception& e) {
        checks.check(false, what + ": unreadable export: " + e.what());
      }
      if (traced) {
        traced_wall_ms_ += runs[i].wall_ms;
        for (const auto& [kind, n] : notes.hits) traced_loads_[kind] += n;
      }
    }
    fs::remove_all(dir);
    return r;
  }

  // Split the printers' dataset time into load and decode: every cached
  // dataset is loaded and decoded in-process, through the calls the
  // provider makes, and each kind's mean decode time is applied to the
  // loads the traced rounds made.
  void replay(Checks& checks) override {
    const dataset::DatasetCache cache(cache_);
    for (int rep = 0; rep < kDecodeReps; ++rep) {
      for (const DatasetRef& d : kDatasets) {
        const std::string key = dataset_key("paper-default", d);
        const auto payload =
            cache.load(d.kind, file_fingerprint(configs_, d.kind), d.op);
        checks.check(payload.has_value(), "replay: cannot load " + key);
        if (!payload) continue;
        checks.check(decode_kind(d.kind, *payload,
                                 decode_[std::string(dataset::to_string(d.kind))]),
                     "replay: cannot decode " + key);
      }
    }
  }

  // dataset.load_s is the printers' own dataset.cache.load spans.
  void layer_metrics(std::map<std::string, double>& m) const override {
    const double load_s = m["dataset.load_s"];
    double decode_s = 0.0;
    for (const auto& [kind, n] : traced_loads_) {
      if (const auto it = decode_.find(kind); it != decode_.end()) {
        decode_s += static_cast<double>(n) * it->second.mean_us() / 1e6;
      }
    }
    m["dataset.decode_s"] = decode_s;
    // The rest of the printers' time: analysis, formatting, process start
    // and exit.
    m["analysis.figures_s"] = traced_wall_ms_ / 1e3 - load_s - decode_s;
  }

  std::string details() const override {
    std::vector<std::string> order;
    for (const std::size_t i : order_) order.push_back(printers_[i]);
    JsonObject loads;
    for (const auto& [kind, n] : traced_loads_) loads.integer(kind, n);
    return JsonObject()
        .str("scenario", "paper-default")
        .integer("printers", std::ssize(printers_))
        .raw("printer_order", json_list(order))
        .integer("dataset_bytes", dataset_bytes_)
        .raw("traced_loads", loads.done())
        .str("campaign_digest", hex(campaign_digest_))
        .raw("printer_digests", digest_map_json(digests_))
        .raw("printer_peak_rss_mb", peak_json())
        .done();
  }

 private:
  std::string peak_json() const {
    JsonObject o;
    for (const auto& [name, mb] : peak_rss_mb_) o.num(name, mb);
    return o.done();
  }

  // The printers built beside this program, in an order drawn from the
  // seed; and their environment: this process's, without WHEELS_* knobs,
  // at jobs=1.
  void find_printers(Checks& checks) {
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(o_.printer_dir, ec)) {
      if (e.is_regular_file()) printers_.push_back(e.path().filename().string());
    }
    std::sort(printers_.begin(), printers_.end());
    checks.check(!printers_.empty(),
                 "no printers under '" + o_.printer_dir + "'");
    order_.resize(printers_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    Rng rng = Rng(o_.seed).fork("printer-order");
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.uniform_index(i)]);
    }
    env_ = child_environment({"WHEELS_JOBS=1"});
  }

  RunOptions o_;
  int rounds_;
  Configs configs_ = printer_configs();
  std::vector<std::string> printers_;  // file names, sorted
  std::vector<std::size_t> order_;     // run order, indices into printers_
  std::vector<std::string> env_;
  std::string cache_;
  std::uint64_t campaign_digest_ = 0;
  std::int64_t dataset_bytes_ = 0;
  std::map<std::string, std::uint64_t> digests_;  // printer -> stdout digest
  std::map<std::string, double> peak_rss_mb_;     // printer -> over rounds
  // Traced rounds.
  double traced_wall_ms_ = 0.0;
  std::map<std::string, std::int64_t> traced_loads_;  // by dataset kind
  std::map<std::string, Accum> decode_;               // by dataset kind
};

// --- serve-hot --------------------------------------------------------------

constexpr const char* kServeScenarios[] = {"urban-loop", "commuter-corridor"};
// The serve datasets keep the golden seed; --seed draws the request stream.
// These two short scenarios execute only a handful of test cycles at
// stride 64, so a new scenario seed adds or drops whole cycles: the rows a
// query scans moved by up to 14% between seeds, and requests/s with them.
constexpr std::uint64_t kServeDatasetSeed = kGoldenSeed;
constexpr int kClients = 2;
// Requests per second of --seconds; the closed loop answered 17k-38k
// requests/s on the 4-core reference host, depending on stolen CPU time.
constexpr int kRequestsPerSecond = 15'000;
// The request stream is timed as this many equal passes.
constexpr int kServePasses = 10;
// Traced runs replay this prefix of the request stream in-process.
constexpr std::size_t kReplayRequests = 20'000;
// Client::call spans kept per traced pass in the trace; every call is
// still timed into the per-layer figures.
constexpr std::size_t kTracedCallsPerPass = 500;

struct Entry {
  serve::Request req;
  std::string body;      // encoded request
  std::string expected;  // full reply frame precomputed in set-up
  std::int64_t records = 0;
};

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const double v : xs) sum += v;
  return sum / static_cast<double>(xs.size());
}

std::vector<double> kpi_samples(const trip::OperatorLogs& logs,
                                std::uint8_t test, analysis::PerfFilter f) {
  if (test == 2) return analysis::rtt_samples(logs.rtt, f);
  f.test = test == 0 ? trip::TestType::DownlinkBulk : trip::TestType::UplinkBulk;
  return analysis::tput_samples(logs.kpi, f);
}

// The analysis a KpiPercentiles / RegionSlice / AppQoe handler runs over a
// resolved dataset, through src/analysis only; the traced replay times it
// apart from the rest of the router.
serve::Reply kpi_reply(const trip::CampaignResult& res, const serve::KpiQuery& q) {
  const auto& logs = res.for_op(static_cast<ran::OperatorId>(q.op));
  analysis::PerfFilter f;
  if (q.tz != 255) f.tz = static_cast<TimeZone>(q.tz);
  f.min_mph = q.min_mph;
  f.max_mph = q.max_mph;
  const std::vector<double> xs = kpi_samples(logs, q.test, f);
  serve::KpiReply k;
  k.count = xs.size();
  k.mean = mean_of(xs);
  k.p10 = percentile(xs, 10.0);
  k.p50 = percentile(xs, 50.0);
  k.p90 = percentile(xs, 90.0);
  k.p99 = percentile(xs, 99.0);
  return k;
}

serve::Reply region_reply(const trip::CampaignResult& res,
                          const serve::RegionSliceQuery& q) {
  const auto& logs = res.for_op(static_cast<ran::OperatorId>(q.op));
  serve::RegionReply rr;
  for (std::uint8_t tz = 0; tz < 4; ++tz) {
    analysis::PerfFilter f;
    f.tz = static_cast<TimeZone>(tz);
    const std::vector<double> xs = kpi_samples(logs, q.test, f);
    rr.rows.push_back({tz, xs.size(), percentile(xs, 50.0), percentile(xs, 90.0)});
  }
  return rr;
}

serve::Reply app_qoe_reply(const apps::AppCampaignResult& res,
                           const serve::AppQoeQuery& q) {
  using apps::AppKind;
  const auto& runs = res.for_op(static_cast<ran::OperatorId>(q.op));
  constexpr std::pair<AppKind, bool> kRows[] = {
      {AppKind::Ar, false},  {AppKind::Ar, true},    {AppKind::Cav, false},
      {AppKind::Cav, true},  {AppKind::Video, false}, {AppKind::Gaming, false}};
  serve::AppQoeReply reply;
  for (const auto& [app, compression] : kRows) {
    serve::AppQoeRow row;
    row.app = static_cast<std::uint8_t>(app);
    row.compression = compression ? 1 : 0;
    double s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (const apps::AppRunRecord& rec : runs) {
      if (rec.app != app || rec.compression != compression) continue;
      row.count += 1;
      switch (app) {
        case AppKind::Ar:
          s1 += rec.mean_e2e_ms;
          s2 += rec.offloaded_fps;
          s3 += rec.map;
          break;
        case AppKind::Cav:
          s1 += rec.mean_e2e_ms;
          s2 += rec.offloaded_fps;
          break;
        case AppKind::Video:
          s1 += rec.qoe;
          s2 += rec.avg_bitrate_mbps;
          s3 += rec.rebuffer_fraction;
          break;
        case AppKind::Gaming:
          s1 += rec.gaming_latency_ms;
          s2 += rec.gaming_bitrate_mbps;
          s3 += rec.frame_drop_rate;
          break;
      }
    }
    if (row.count > 0) {
      const double n = static_cast<double>(row.count);
      row.m1 = s1 / n;
      row.m2 = s2 / n;
      row.m3 = s3 / n;
    }
    reply.rows.push_back(row);
  }
  return reply;
}

// Every catalogue query names its dataset.
const serve::DatasetSelector& selector_of(const serve::Request& req) {
  const serve::DatasetSelector* sel = std::visit(
      [](const auto& q) -> const serve::DatasetSelector* {
        if constexpr (requires { q.dataset; }) {
          return &q.dataset;
        } else {
          return nullptr;
        }
      },
      req);
  return *sel;
}

class ServeHot final : public Workload {
 public:
  explicit ServeHot(const RunOptions& o)
      : o_(o),
        requests_(static_cast<std::size_t>(std::max(1, o.seconds)) *
                  kRequestsPerSecond) {}

  ~ServeHot() override { teardown(); }

  int jobs() const override { return kClients; }
  // Set-up simulates four datasets and starts the daemon (3-5 s). The
  // daemon's datasets freed by one set-up left the next one's process
  // either 23.5 or 34 MiB resident, at random; made elsewhere, the earlier
  // set-ups leave the kept one at 19.7 MiB in every run.
  int setup_reps() const override { return 3; }
  bool isolate_setups() const override { return true; }
  int passes() const override { return kServePasses; }
  // Each pass sends a different tenth of the request stream.
  bool repeats_queries() const override { return false; }

  void setup(int rep, Checks& checks) override {
    dir_ = "serve-" + std::to_string(rep);
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    const std::string cache = dir_ + "/cache";

    // 1. The four datasets, simulated cold at jobs=2 in a forked process,
    // as `wheels_campaign generate` would before `wheels_served` starts:
    // the heap the simulation leaves behind is not the daemon's. No other
    // thread runs here (the last set-up's daemon is stopped).
    std::vector<Configs> configs;
    for (const char* name : kServeScenarios) {
      configs.push_back(configs_for(load_spec(name, kServeDatasetSeed)));
    }
    const Forked f = run_forked(
        dir_ + "/", next_pid_++, "serve set-up", checks, [&](Checks& mine) {
          dataset::ProviderOptions po;
          po.cache_dir = cache;
          po.jobs = kColdJobs;
          dataset::CampaignProvider provider(po);
          std::vector<std::string> errors(2 * configs.size());
          parallel_for_each(kColdJobs, errors.size(), [&](std::size_t i) {
            Resolved in;
            try {
              resolve_into(provider, configs[i / 2],
                           kDatasets[i % 2 == 0 ? 0 : 4], in);
            } catch (const std::exception& e) {
              errors[i] = e.what();
            }
          });
          for (const auto& e : errors) mine.check(e.empty(), "serve set-up: " + e);
          return std::int64_t{0};
        });
    setup_child_counters_ = f.counters;
    child_spans_.insert(child_spans_.end(), f.spans.begin(), f.spans.end());
    dataset_bytes_ = dir_bytes(cache);

    // 2. The daemon on an AF_UNIX socket over that cache.
    serve::DaemonOptions dopts;
    dopts.socket_path = dir_ + "/serve.sock";
    dopts.idle_timeout_ms = 0;
    dopts.router.store.max_datasets = 8;
    dopts.router.store.provider.cache_dir = cache;
    dopts.router.store.provider.jobs = kColdJobs;
    daemon_ = std::make_unique<serve::Daemon>(dopts);
    daemon_thread_ = std::thread([this] {
      try {
        daemon_exit_ = daemon_->run();
      } catch (const std::exception&) {
        daemon_exit_ = -1;
      }
    });
    for (auto& c : clients_) {
      c = std::make_unique<serve::Client>();
      bool up = false;
      for (int attempt = 0; attempt < 5000 && !up; ++attempt) {
        up = c->connect(dopts.socket_path);
        if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      checks.check(up, "cannot connect to " + dopts.socket_path);
      if (!up) return;
    }

    build_catalogue();
    // 3. Touch every dataset once so all four are resident: the first
    // KpiPercentiles and the first AppQoe query of each scenario.
    for (std::size_t i = 0; i < catalogue_.size(); ++i) {
      const bool first_of_scenario =
          i == 0 ||
          selector_of(catalogue_[i].req) != selector_of(catalogue_[i - 1].req);
      if (!first_of_scenario &&
          !std::holds_alternative<serve::AppQoeQuery>(catalogue_[i].req)) {
        continue;
      }
      const auto reply = clients_[0]->call(catalogue_[i].req);
      checks.check(
          reply && !std::holds_alternative<serve::ErrorReply>(reply->second),
          "serve set-up: touch failed");
    }
    // 4. The expected reply of every catalogue entry, in-process.
    serve::SessionState session;
    std::string all;
    for (Entry& e : catalogue_) {
      e.expected = daemon_->router().handle(e.body, session);
      all += e.expected;
      e.records = records_of(e.req);
    }
    checks.check(session.errors == 0, "serve set-up: catalogue query failed");
    catalogue_digest_ = dataset::fnv1a(all);
    build_schedule();
  }

  void teardown() override {
    for (auto& c : clients_) c.reset();
    if (daemon_) daemon_->request_stop();
    if (daemon_thread_.joinable()) daemon_thread_.join();
    if (daemon_exit_ != 0) {
      std::fprintf(stderr, "serve daemon exited with %d\n", daemon_exit_);
    }
    daemon_.reset();
    if (!dir_.empty()) fs::remove_all(dir_);
    dir_.clear();
  }

  // Pass k sends the k-th tenth of the request stream, each client every
  // other request of it.
  PassResult pass(int index, Checks& checks) override {
    const bool traced = obs::trace_enabled();
    const std::size_t size = schedule_.size() / kServePasses;
    const std::size_t begin = static_cast<std::size_t>(index % kServePasses) * size;
    struct PerClient {
      std::vector<double> ms;
      std::int64_t sent = 0;
      std::int64_t failed = 0;
      std::string first_failure;
    };
    std::array<PerClient, kClients> per;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        serve::Client& client = *clients_[t];
        PerClient& mine = per[t];
        mine.ms.reserve(size / kClients + 1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const auto fail = [&](const std::string& why) {
          if (mine.failed++ == 0) mine.first_failure = why;
        };
        for (std::size_t i = begin + t; i < begin + size; i += kClients) {
          const Entry& e = catalogue_[schedule_[i]];
          ++mine.sent;
          try {
            std::optional<obs::Span> span;
            if (traced && i - begin < kTracedCallsPerPass) {
              span.emplace("serve.client.call", "serve");
            }
            const std::int64_t ts = obs::now_ns();
            const auto reply = client.call(e.req);
            const std::int64_t te = obs::now_ns();
            span.reset();
            mine.ms.push_back(ms_between(ts, te));
            if (traced) client_.add(te - ts);
            if (!reply) {
              fail("transport failure");
            } else if (client.last_reply_bytes() != e.expected) {
              fail("reply differs from the expected bytes");
            }
          } catch (const std::exception& ex) {
            fail(ex.what());
          }
        }
      });
    }
    PassResult r;
    const std::int64_t t0 = obs::now_ns();
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    r.pass_s = static_cast<double>(obs::now_ns() - t0) / 1e9;
    for (std::size_t t = 0; t < kClients; ++t) {
      r.query_ms.insert(r.query_ms.end(), per[t].ms.begin(), per[t].ms.end());
      checks.attempted += per[t].sent;
      checks.failed += per[t].failed;
      if (per[t].failed > 0 && checks.messages.size() < 8) {
        checks.messages.push_back("serve client " + std::to_string(t) + ": " +
                                  per[t].first_failure);
      }
    }
    records_ += records_between(begin, begin + size);
    return r;
  }

  // Split the router's time by layer: the request prefix goes once through
  // Router::handle and once through its public sub-calls.
  void replay(Checks& checks) override {
    const std::size_t n = std::min(kReplayRequests, schedule_.size());
    serve::Router& router = daemon_->router();
    serve::SessionState session;
    for (std::size_t i = 0; i < n; ++i) {
      const Entry& e = catalogue_[schedule_[i]];
      std::string frame;
      {
        const Timed t(router_);
        frame = router.handle(e.body, session);
      }
      checks.check(frame == e.expected, "router replay differs");
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Entry& e = catalogue_[schedule_[i]];
      serve::Request req;
      {
        const Timed t(decode_);
        if (serve::decode_request(e.body, req) != serve::DecodeStatus::Ok) {
          checks.check(false, "replay: request does not decode");
          continue;
        }
      }
      const serve::DatasetSelector& sel = selector_of(req);
      scenario::ScenarioSpec spec;
      {
        const Timed t(scenario_);
        spec = scenario::load_scenario(sel.scenario);
        if (sel.has_seed) spec.seed = sel.seed;
      }
      serve::Reply reply;
      if (std::holds_alternative<serve::AppQoeQuery>(req)) {
        apps::AppCampaignConfig cfg;
        {
          const Timed t(scenario_extra_);
          cfg = apps::AppCampaignConfig::from_scenario(
              spec, static_cast<int>(sel.stride));
        }
        {
          const Timed t(fingerprint_);
          (void)dataset::fingerprint(cfg);
        }
        std::shared_ptr<const apps::AppCampaignResult> res;
        {
          const Timed t(store_);
          res = router.store().apps(cfg);
        }
        const Timed t(analysis_);
        reply = app_qoe_reply(*res, std::get<serve::AppQoeQuery>(req));
      } else {
        trip::CampaignConfig cfg;
        {
          const Timed t(scenario_extra_);
          cfg = trip::CampaignConfig::from_scenario(
              spec, static_cast<int>(sel.stride));
        }
        {
          const Timed t(fingerprint_);
          (void)dataset::fingerprint(cfg);
        }
        std::shared_ptr<const trip::CampaignResult> res;
        {
          const Timed t(store_);
          res = router.store().campaign(cfg);
        }
        const Timed t(analysis_);
        reply = std::holds_alternative<serve::KpiQuery>(req)
                    ? kpi_reply(*res, std::get<serve::KpiQuery>(req))
                    : region_reply(*res, std::get<serve::RegionSliceQuery>(req));
      }
      std::string frame;
      {
        const Timed t(encode_);
        frame = serve::wrap_frame(encode_reply(
            static_cast<std::uint8_t>(serve::kind_of(req)), reply));
      }
      checks.check(frame == e.expected, "sub-call replay differs");
    }
    replayed_ = n;
  }

  void layer_metrics(std::map<std::string, double>& m) const override {
    m["scenario.resolve_us"] = scenario_.mean_us() + scenario_extra_.mean_us();
    m["dataset.fingerprint_us"] = fingerprint_.mean_us();
    m["analysis.query_us"] = analysis_.mean_us();
    m["serve.protocol_us"] = decode_.mean_us() + encode_.mean_us();
    m["serve.store.lookup_us"] = store_.mean_us();
    m["serve.router_us"] = router_.mean_us();
    m["serve.client_us"] = client_.mean_us();
  }

  std::int64_t analysis_records() const override { return records_; }

  std::string details() const override {
    std::array<int, 3> kinds{};
    for (const Entry& e : catalogue_) ++kinds[kind_index(e.req)];
    const auto share = [&](std::size_t k) {
      return schedule_.empty() ? 0.0
                               : static_cast<double>(sent_by_kind_[k]) /
                                     static_cast<double>(schedule_.size());
    };
    return JsonObject()
        .raw("scenarios",
             json_list(std::vector<std::string>(std::begin(kServeScenarios),
                                                std::end(kServeScenarios))))
        .integer("dataset_bytes", dataset_bytes_)
        .integer("catalogue", std::ssize(catalogue_))
        .integer("catalogue_kpi", kinds[0])
        .integer("catalogue_region", kinds[1])
        .integer("catalogue_app_qoe", kinds[2])
        .integer("requests", std::ssize(schedule_))
        .num("requests_share_kpi", share(0))
        .num("requests_share_region", share(1))
        .num("requests_share_app_qoe", share(2))
        .integer("clients", kClients)
        .integer("replayed", static_cast<std::int64_t>(replayed_))
        .str("catalogue_digest", hex(catalogue_digest_))
        .done();
  }

 private:
  // Request shares of KpiPercentiles, RegionSlice and AppQoe queries: the
  // 60/20/20 split of wheels_loadgen's hot phase (KPI, region slice,
  // ping), with AppQoe taking ping's share because a ping reads no
  // dataset. Within a kind every catalogue entry is equally likely, as in
  // the loadgen; no popularity skew is assumed.
  static constexpr std::array<double, 3> kKindShare = {0.6, 0.2, 0.2};

  serve::DatasetSelector selector(const char* scenario) const {
    serve::DatasetSelector sel;
    sel.scenario = scenario;
    sel.has_seed = true;
    sel.seed = kServeDatasetSeed;
    sel.stride = kStride;
    return sel;
  }

  // KpiPercentiles (operator x test x time zone x speed band), RegionSlice
  // (operator x test) and AppQoe (operator) over both scenarios, grouped
  // by scenario and kind.
  void build_catalogue() {
    catalogue_.clear();
    constexpr double kBands[5] = {-1.0, 0.0, 20.0, 60.0, 1e9};
    for (const char* name : kServeScenarios) {
      for (std::uint8_t op = 0; op < 3; ++op) {
        for (std::uint8_t test = 0; test < 3; ++test) {
          for (const std::uint8_t tz : {255, 0, 1, 2, 3}) {
            for (int b = 0; b < 4; ++b) {
              serve::KpiQuery q;
              q.dataset = selector(name);
              q.op = op;
              q.test = test;
              q.tz = tz;
              // Band 0 is the whole speed range, 1-3 the figure bins.
              q.min_mph = b == 0 ? -1.0 : kBands[b];
              q.max_mph = b == 0 ? 1e9 : kBands[b + 1];
              add_query(q);
            }
          }
        }
      }
      for (std::uint8_t op = 0; op < 3; ++op) {
        for (std::uint8_t test = 0; test < 3; ++test) {
          serve::RegionSliceQuery q;
          q.dataset = selector(name);
          q.op = op;
          q.test = test;
          add_query(q);
        }
      }
      for (std::uint8_t op = 0; op < 3; ++op) {
        serve::AppQoeQuery q;
        q.dataset = selector(name);
        q.op = op;
        add_query(q);
      }
    }
  }

  void add_query(serve::Request req) {
    Entry e;
    e.body = serve::encode_request(req);
    e.req = std::move(req);
    catalogue_.push_back(std::move(e));
  }

  // Each request picks its kind by kKindShare, then one entry of that
  // kind with equal odds, both drawn from the seed.
  void build_schedule() {
    std::array<std::vector<std::uint32_t>, 3> by_kind;
    for (std::size_t i = 0; i < catalogue_.size(); ++i) {
      by_kind[kind_index(catalogue_[i].req)].push_back(
          static_cast<std::uint32_t>(i));
    }
    Rng draws = Rng(o_.seed).fork("serve-schedule");
    schedule_.resize(requests_);
    sent_by_kind_ = {};
    for (auto& s : schedule_) {
      const double u = draws.uniform();
      const std::size_t k = u < kKindShare[0]                   ? 0
                            : u < kKindShare[0] + kKindShare[1] ? 1
                                                                : 2;
      const auto& entries = by_kind[k];
      s = entries[draws.uniform_index(entries.size())];
      ++sent_by_kind_[k];
    }
  }

  static std::size_t kind_index(const serve::Request& req) {
    return std::holds_alternative<serve::KpiQuery>(req)          ? 0
           : std::holds_alternative<serve::RegionSliceQuery>(req) ? 1
                                                                  : 2;
  }

  // Records the router's handler reads for one query.
  std::int64_t records_of(const serve::Request& req) {
    const serve::DatasetSelector& sel = selector_of(req);
    scenario::ScenarioSpec spec = scenario::load_scenario(sel.scenario);
    spec.seed = sel.seed;
    if (const auto* q = std::get_if<serve::AppQoeQuery>(&req)) {
      const auto res = daemon_->router().store().apps(
          apps::AppCampaignConfig::from_scenario(spec, kStride));
      return 6 * std::ssize(res->for_op(static_cast<ran::OperatorId>(q->op)));
    }
    const auto res = daemon_->router().store().campaign(
        trip::CampaignConfig::from_scenario(spec, kStride));
    const auto pick = [&](std::uint8_t op, std::uint8_t test) {
      const auto& logs = res->for_op(static_cast<ran::OperatorId>(op));
      return test == 2 ? std::ssize(logs.rtt) : std::ssize(logs.kpi);
    };
    if (const auto* q = std::get_if<serve::KpiQuery>(&req)) return pick(q->op, q->test);
    const auto& q = std::get<serve::RegionSliceQuery>(req);
    return 4 * pick(q.op, q.test);
  }

  std::int64_t records_between(std::size_t begin, std::size_t end) const {
    std::int64_t n = 0;
    for (std::size_t i = begin; i < end; ++i) n += catalogue_[schedule_[i]].records;
    return n;
  }

  RunOptions o_;
  std::size_t requests_;
  std::string dir_;
  std::unique_ptr<serve::Daemon> daemon_;
  int daemon_exit_ = 0;  // Daemon::run()'s result, -1 if it threw
  std::thread daemon_thread_;
  std::array<std::unique_ptr<serve::Client>, kClients> clients_;
  std::vector<Entry> catalogue_;
  std::vector<std::uint32_t> schedule_;
  std::array<std::int64_t, 3> sent_by_kind_{};
  std::uint64_t catalogue_digest_ = 0;
  std::int64_t dataset_bytes_ = 0;
  std::int64_t records_ = 0;
  std::size_t replayed_ = 0;
  // Traced passes: every Client::call; replay: each router sub-call.
  Accum client_, router_, decode_, scenario_, scenario_extra_, fingerprint_,
      store_, analysis_, encode_;
};

}  // namespace

int generate_scenario(const std::string& scenario, const std::string& cache,
                      const std::string& out, bool traced) {
  obs::set_metrics_export_path(out + "metrics");
  if (traced) obs::set_trace_export_path(out + "trace");
  Checks checks;
  std::int64_t runs = 0;
  {
    const scenario::ScenarioSpec spec = load_spec(scenario, kLibrarySeed);
    const obs::Span span("cold.scenario", "cold");
    dataset::ProviderOptions po;
    po.cache_dir = cache;
    po.jobs = kColdJobs;
    dataset::CampaignProvider provider(po);
    Resolved in;
    runs = resolve_all(provider, configs_for(spec), in, checks, scenario);
  }
  write_result(out + "result", checks,
               {static_cast<double>(runs), peak_rss_mb()});
  return obs::flush_exports() ? 0 : 1;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunOptions& opts) {
  if (name == "cold-library") return std::make_unique<ColdLibrary>(opts);
  if (name == "warm-figures") return std::make_unique<WarmFigures>(opts);
  if (name == "serve-hot") return std::make_unique<ServeHot>(opts);
  return nullptr;
}

}  // namespace wheels::perfbench
