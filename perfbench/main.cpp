// wheels_perfbench: one benchmark run of one workload.
//
//   wheels_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--printers DIR] [--trace-out FILE]
//
// Runs in the current directory, which should be empty: every cache and
// socket the run creates lives there. Prints one JSON object on its last
// line (end-to-end metrics with their sample counts, per-layer metrics of
// a traced run, exact work counts, host facts, correctness). perfbench/
// run.py builds this program and turns that object into the benchmark's
// result line.
//
// An untraced run sets up several times (the median is reported), then
// times the workload's passes and reports medians over them (the peak RSS
// is the highest any pass reached). A traced run makes its last up-front
// set-up with spans armed, alternates untraced and traced passes, and
// reports the per-layer metrics of the traced ones plus the tracing
// overhead.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/stats.h"
#include "host.h"
#include "ledger.h"
#include "obs/runtime.h"
#include "obs/trace.h"
#include "workloads.h"

namespace wheels::perfbench {
namespace {

struct Args {
  std::string workload;
  RunOptions run;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "wheels_perfbench: " << why << "\n"
            << "usage: wheels_perfbench --workload cold-library|warm-figures|"
               "serve-hot --seed N --seconds S --trace 0|1 [--printers DIR]\n"
               "       [--trace-out FILE]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.run.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("bad --seed " + v);
    } else if (arg == "--seconds") {
      a.run.seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (*end != '\0' || a.run.seconds < 1) usage("bad --seconds " + v);
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace " + v);
      a.run.trace = v == "1";
    } else if (arg == "--printers") {
      a.run.printer_dir = v;
    } else if (arg == "--trace-out") {
      a.trace_out = v;
    } else {
      usage("unknown option " + arg);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

// The passes of one kind (untraced or traced) and what they did.
struct Measured {
  std::vector<PassResult> passes;
  std::vector<double> peak_rss_mb;  // per pass
  Counters counters;  // obs deltas summed over these passes
  std::int64_t apps_runs = 0, analysis_records = 0;

  [[nodiscard]] double total_s() const {
    double s = 0.0;
    for (const PassResult& p : passes) s += p.pass_s;
    return s;
  }
};

// Everything measured after the up-front set-up.
struct Passes {
  Measured plain, traced;
  std::int64_t from_ns = 0, to_ns = 0;
  ProbeResult before, after;
  double steal_pct = 0.0;
  std::string load_before, load_after;
};

double median(std::vector<double> v) { return percentile(v, 50.0); }

// The set-ups of a run.
struct SetUps {
  std::vector<double> samples_s;
  int made = 0;
  bool held = false;  // this process holds a set-up (the last one made)
  // The set-up a traced run makes with spans armed: the last up-front one.
  std::int64_t traced_from_ns = 0, traced_to_ns = 0;
  Counters traced_counters;
};

// Makes set-up `rep` in a forked process, which tears it down again, and
// returns how long the set-up took there. No other thread may be running.
double set_up_elsewhere(Workload& w, int rep, Checks& checks) {
  int fds[2];
  if (::pipe(fds) != 0) {
    checks.check(false, "set-up " + std::to_string(rep) + ": no pipe");
    return 0.0;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    Checks mine;
    const std::int64_t t0 = obs::now_ns();
    w.setup(rep, mine);
    const double report[3] = {static_cast<double>(obs::now_ns() - t0) / 1e9,
                              static_cast<double>(mine.attempted),
                              static_cast<double>(mine.failed)};
    const bool sent = ::write(fds[1], report, sizeof(report)) ==
                      static_cast<ssize_t>(sizeof(report));
    w.teardown();
    std::_Exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  double report[3] = {0.0, 0.0, 0.0};
  const bool got =
      pid > 0 && ::read(fds[0], report, sizeof(report)) ==
                     static_cast<ssize_t>(sizeof(report));
  ::close(fds[0]);
  int status = -1;
  while (pid > 0 && ::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  checks.check(got && WIFEXITED(status) && WEXITSTATUS(status) == 0,
               "set-up " + std::to_string(rep) + " in a forked process failed");
  checks.attempted += static_cast<std::int64_t>(report[1]);
  checks.failed += static_cast<std::int64_t>(report[2]);
  return report[0];
}

// Takes `reps` set-up samples, each the mean of a batch of set-ups. Every
// set-up replaces the one before, which is torn down first (outside the
// timing), so the passes run on the last one made. With `trace_last` the
// last set-up runs with spans armed. A workload that isolates its set-ups
// makes all but the last in forked processes (set_up_elsewhere).
void set_up(Workload& w, int reps, bool trace_last, SetUps& s, Checks& checks) {
  const int batch = w.setup_batch();
  for (int rep = 0; rep < reps; ++rep) {
    double sum = 0.0;
    for (int i = 0; i < batch; ++i) {
      const bool last = rep + 1 == reps && i + 1 == batch;
      if (w.isolate_setups() && !last) {
        sum += set_up_elsewhere(w, s.made++, checks);
        continue;
      }
      const bool traced = trace_last && last;
      if (s.held) w.teardown();
      s.held = true;
      const Counters c0 = traced ? capture_counters() : Counters{};
      obs::set_trace_enabled(traced);
      const std::int64_t t0 = obs::now_ns();
      w.setup(s.made++, checks);
      const std::int64_t t1 = obs::now_ns();
      obs::set_trace_enabled(false);
      if (traced) {
        s.traced_from_ns = t0;
        s.traced_to_ns = t1;
        s.traced_counters = counter_delta(c0, capture_counters());
        for (const auto& [k, v] : w.setup_child_counters()) {
          s.traced_counters[k] += v;
        }
      }
      sum += static_cast<double>(t1 - t0) / 1e9;
    }
    s.samples_s.push_back(sum / static_cast<double>(batch));
  }
}

// Median over the passes of one figure of a pass.
template <typename F>
double median_over(const Measured& m, F&& figure) {
  std::vector<double> v;
  for (const PassResult& p : m.passes) v.push_back(figure(p));
  return median(v);
}

// Times the workload's passes. A traced run alternates an untraced and a
// traced pass, so both kinds see the same host conditions and the tracing
// overhead is not confused with warm-up or a change on the host. Workloads
// that set up before every pass do so before each but the first, which
// runs on the up-front set-up.
Passes measure(Workload& w, bool traced, SetUps& setups, Checks& checks) {
  Passes t;
  t.load_before = load_average();
  t.before = run_probes();
  const CpuTicks ticks0 = read_cpu_ticks();
  t.from_ns = obs::now_ns();
  for (int k = 0; k < w.passes(); ++k) {
    for (const bool on : {false, true}) {
      if (on && !traced) continue;
      Measured& m = on ? t.traced : t.plain;
      if (w.setup_reps_per_pass() > 0 && (k > 0 || on)) {
        set_up(w, w.setup_reps_per_pass(), false, setups, checks);
      }
      const Counters c0 = capture_counters();
      const std::int64_t runs0 = w.apps_runs();
      const std::int64_t records0 = w.analysis_records();
      reset_peak_rss();
      obs::set_trace_enabled(on);
      m.passes.push_back(w.pass(on ? w.passes() + k : k, checks));
      obs::set_trace_enabled(false);
      const PassResult& p = m.passes.back();
      m.peak_rss_mb.push_back(p.child_peak_rss_mb >= 0.0 ? p.child_peak_rss_mb
                                                         : peak_rss_mb());
      for (const auto& [key, v] : counter_delta(c0, capture_counters())) {
        m.counters[key] += v;
      }
      for (const auto& [key, v] : p.child_counters) m.counters[key] += v;
      m.apps_runs += w.apps_runs() - runs0;
      m.analysis_records += w.analysis_records() - records0;
    }
  }
  t.to_ns = obs::now_ns();
  const CpuTicks ticks1 = read_cpu_ticks();
  if (ticks1.total > ticks0.total) {
    t.steal_pct = 100.0 * static_cast<double>(ticks1.steal - ticks0.steal) /
                  static_cast<double>(ticks1.total - ticks0.total);
  }
  t.after = run_probes();
  t.load_after = load_average();
  return t;
}

// The end-to-end figures of a run's untraced passes, each a median over
// the passes so a stall that hits a minority of them does not move it.
struct PassFigures {
  double pass_s = 0.0, qps = 0.0, p50_ms = 0.0, p99_ms = 0.0;
};

// Passes that send different requests: the median of each pass's figure.
PassFigures figures_by_pass(const Measured& m) {
  PassFigures f;
  f.pass_s = median_over(m, [](const PassResult& p) { return p.pass_s; });
  f.qps = median_over(m, [](const PassResult& p) {
    return static_cast<double>(p.query_ms.size()) / p.pass_s;
  });
  f.p50_ms = median_over(
      m, [](const PassResult& p) { return percentile(p.query_ms, 50.0); });
  f.p99_ms = median_over(
      m, [](const PassResult& p) { return percentile(p.query_ms, 99.0); });
  return f;
}

// Passes that repeat the same queries: each query's median over the passes,
// so a stall shorter than a pass only ever costs the query it hit. The pass
// is the sum of those medians; the percentiles are taken over them.
PassFigures figures_by_query(const Measured& m) {
  std::vector<double> typical(m.passes.front().query_ms.size());
  for (std::size_t i = 0; i < typical.size(); ++i) {
    std::vector<double> v;
    for (const PassResult& p : m.passes) v.push_back(p.query_ms.at(i));
    typical[i] = median(v);
  }
  PassFigures f;
  for (const double ms : typical) f.pass_s += ms / 1e3;
  f.qps = static_cast<double>(typical.size()) / f.pass_s;
  f.p50_ms = percentile(typical, 50.0);
  f.p99_ms = percentile(typical, 99.0);
  return f;
}

std::string metric(double value, std::string_view unit, std::int64_t samples,
                   std::int64_t passes) {
  return JsonObject()
      .num("value", value)
      .str("unit", unit)
      .integer("samples", samples)
      .integer("passes", passes)
      .done();
}

// Per-layer metrics from one phase's obs deltas and spans. Layers a phase
// does not load read 0. For the passes (not the set-up), the workload
// fills in what it measured itself: serve-hot's per-request split,
// warm-figures' split of the printers' time.
std::map<std::string, double> layer_metrics(const Workload& w, bool passes,
                                            const Counters& c,
                                            std::int64_t apps_runs,
                                            std::int64_t analysis_records,
                                            std::int64_t from_ns,
                                            std::int64_t to_ns,
                                            double phase_s) {
  const auto spans = span_totals(from_ns, to_ns, w.child_spans());
  const auto span = [&](const std::string& name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  };
  const auto s = [](std::int64_t ns) { return static_cast<double>(ns) / 1e9; };
  std::map<std::string, double> m;
  const double busy = static_cast<double>(get(c, "pool.task_us.sum")) / 1e6;
  m["core.pool.tasks"] = static_cast<double>(get(c, "pool.tasks"));
  m["core.pool.busy_s"] = busy;
  m["core.pool.efficiency"] =
      phase_s > 0.0 ? busy / (w.jobs() * phase_s) : 0.0;

  const SpanTotals scen = sum_prefix(spans, "scenario.");
  const std::int64_t resolves = span("scenario.from_scenario").count;
  m["scenario.resolve_us"] =
      resolves > 0 ? static_cast<double>(scen.total_ns) / 1e3 /
                         static_cast<double>(resolves)
                   : 0.0;

  m["trip.record_s"] = static_cast<double>(get(c, "campaign.record_us")) / 1e6;
  const double replay_s =
      static_cast<double>(get(c, "campaign.replay_us")) / 1e6;
  m["trip.replay_s"] = replay_s;
  m["trip.baseline_s"] =
      static_cast<double>(get(c, "campaign.baseline_us")) / 1e6;

  const std::int64_t slots = get(c, "campaign.kernel.slots");
  m["ran.slots"] = static_cast<double>(slots);
  m["ran.batch_s"] =
      static_cast<double>(get(c, "campaign.kernel.batch_us")) / 1e6;
  m["ran.ns_per_slot"] =
      slots > 0 ? replay_s * 1e9 / static_cast<double>(slots) : 0.0;

  m["apps.campaign_s"] = s(span("dataset.simulate.app-campaign").self_ns);
  m["apps.baseline_s"] = s(span("dataset.simulate.app-static-baseline").self_ns);
  m["apps.runs"] = static_cast<double>(apps_runs);

  m["dataset.simulations"] =
      static_cast<double>(get(c, "dataset.provider.campaign_simulations") +
                          get(c, "dataset.provider.baseline_simulations"));
  m["dataset.disk_hits"] =
      static_cast<double>(get(c, "dataset.provider.disk_hits"));
  m["dataset.bytes_written"] =
      static_cast<double>(get(c, "dataset.cache.bytes_written"));
  const double bytes_read =
      static_cast<double>(get(c, "dataset.cache.bytes_read"));
  m["dataset.bytes_read"] = bytes_read;
  const SpanTotals resolve = sum_prefix(spans, "dataset.resolve.");
  m["dataset.encode_s"] = s(resolve.self_with_sim_ns);
  m["dataset.decode_s"] = s(resolve.self_without_sim_ns);
  m["dataset.store_s"] = s(span("dataset.cache.store").total_ns);
  const double load_s = s(span("dataset.cache.load").total_ns);
  m["dataset.load_s"] = load_s;
  m["dataset.read_mb_per_s"] = load_s > 0.0 ? bytes_read / 1e6 / load_s : 0.0;
  m["dataset.fingerprint_us"] = 0.0;

  m["analysis.figures_s"] = s(span("analysis.figure").total_ns);
  m["analysis.records_in"] = static_cast<double>(analysis_records);
  m["analysis.query_us"] = 0.0;

  const auto mean_us = [&](const std::string& hist) {
    const std::int64_t n = get(c, hist + ".count");
    return n > 0 ? static_cast<double>(get(c, hist + ".sum")) /
                       static_cast<double>(n)
                 : 0.0;
  };
  m["serve.handle_us.kpi"] = mean_us("serve.latency_us.kpi");
  m["serve.handle_us.region"] = mean_us("serve.latency_us.region");
  m["serve.handle_us.app_qoe"] = mean_us("serve.latency_us.app_qoe");
  std::int64_t handled = 0, handle_sum = 0;
  for (const char* k : {"kpi", "region", "app_qoe"}) {
    handled += get(c, std::string("serve.latency_us.") + k + ".count");
    handle_sum += get(c, std::string("serve.latency_us.") + k + ".sum");
  }
  m["serve.requests"] = static_cast<double>(get(c, "serve.requests"));
  m["serve.errors"] = static_cast<double>(get(c, "serve.errors"));
  const std::int64_t hits = get(c, "serve.store.hits");
  const std::int64_t lookups = hits + get(c, "serve.store.misses");
  m["serve.store.hit_ratio"] =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0;
  for (const char* k : {"serve.client_us", "serve.transport_us",
                        "serve.protocol_us", "serve.store.lookup_us",
                        "serve.router_us"}) {
    m[k] = 0.0;
  }
  if (passes) w.layer_metrics(m);
  if (handled > 0 && m["serve.client_us"] > 0.0) {
    m["serve.transport_us"] =
        m["serve.client_us"] -
        static_cast<double>(handle_sum) / static_cast<double>(handled);
  }
  return m;
}

std::string layers_json(const std::map<std::string, double>& m) {
  JsonObject o;
  for (const auto& [k, v] : m) o.num(k, v);
  return o.done();
}

std::string probe_json(const ProbeResult& p) {
  return JsonObject().num("alu_ms", p.alu_ms).num("chase_ns", p.chase_ns).done();
}

int run(const Args& args) {
  obs::install_thread_pool_hooks();
  auto w = make_workload(args.workload, args.run);
  if (!w) usage("unknown workload " + args.workload);
  const bool traced = args.run.trace;
  Checks checks;

  // Set-up samples up front (and, for some workloads, before each pass);
  // setup_s is their median.
  SetUps setups;
  set_up(*w, w->setup_reps(), traced, setups, checks);
  const std::int64_t setup_from = setups.traced_from_ns;
  const std::int64_t setup_to = setups.traced_to_ns;
  const double last_setup_s = static_cast<double>(setup_to - setup_from) / 1e9;

  const Passes timed = measure(*w, traced, setups, checks);
  const std::vector<double>& setup_s = setups.samples_s;
  const Measured& plain = timed.plain;
  const Measured& m = traced ? timed.traced : plain;
  std::map<std::string, double> layers, setup_layers;
  if (traced) {
    w->replay(checks);
    // Spans are recorded only while a traced pass runs.
    layers = layer_metrics(*w, true, m.counters, m.apps_runs, m.analysis_records,
                           timed.from_ns, timed.to_ns, m.total_s());
    // Each traced pass against the untraced pass just before it.
    std::vector<double> overhead;
    for (std::size_t k = 0; k < m.passes.size(); ++k) {
      const double u = plain.passes[k].pass_s;
      overhead.push_back(100.0 * (m.passes[k].pass_s - u) / u);
    }
    layers["obs.trace_overhead_pct"] = median(overhead);
    setup_layers = layer_metrics(*w, false, setups.traced_counters, 0, 0,
                                 setup_from,
                                 setup_to, last_setup_s);
    if (!args.trace_out.empty()) {
      std::ofstream(args.trace_out) << chrome_trace(w->child_spans());
    }
  }

  std::int64_t n = 0;
  std::vector<double> pass_samples;
  for (const PassResult& p : plain.passes) {
    n += std::ssize(p.query_ms);
    pass_samples.push_back(p.pass_s);
  }
  const auto k = std::ssize(plain.passes);
  const PassFigures f = w->repeats_queries() ? figures_by_query(plain)
                                             : figures_by_pass(plain);
  const std::string e2e =
      JsonObject()
          .raw("setup_s", metric(median(setup_s), "s",
                                 std::ssize(setup_s) * w->setup_batch(), 0))
          .raw("pass_s", metric(f.pass_s, "s", k, k))
          .raw("peak_rss_mb",
               metric(*std::max_element(plain.peak_rss_mb.begin(),
                                        plain.peak_rss_mb.end()),
                      "MiB", k, k))
          .raw("qps", metric(f.qps, "1/s", n, k))
          .raw("query_p50_ms", metric(f.p50_ms, "ms", n, k))
          .raw("query_p99_ms", metric(f.p99_ms, "ms", n, k))
          .done();

  // Exact work counts of the measured passes (Det::Stable: a pure function
  // of the workload, seed and code).
  const Counters& c = m.counters;
  const std::string counts =
      JsonObject()
          .integer("ran.slots", get(c, "campaign.kernel.slots"))
          .integer("apps.runs", m.apps_runs)
          .integer("dataset.simulations",
                   get(c, "dataset.provider.campaign_simulations") +
                       get(c, "dataset.provider.baseline_simulations"))
          .integer("dataset.disk_hits", get(c, "dataset.provider.disk_hits"))
          .integer("dataset.bytes_written", get(c, "dataset.cache.bytes_written"))
          .integer("dataset.bytes_read", get(c, "dataset.cache.bytes_read"))
          .integer("analysis.records_in", m.analysis_records)
          .integer("serve.requests", get(c, "serve.requests"))
          .integer("serve.errors", get(c, "serve.errors"))
          .done();

  const std::string host =
      JsonObject()
          .integer("nproc", online_cpus())
          .integer("jobs", w->jobs())
          .str("affinity", affinity_list())
          .str("loadavg_before", timed.load_before)
          .str("loadavg_after", timed.load_after)
          .num("steal_pct", timed.steal_pct)
          .raw("probe_before", probe_json(timed.before))
          .raw("probe_after", probe_json(timed.after))
          .integer("chase_bytes", static_cast<std::int64_t>(kChaseBytes))
          .done();


  JsonObject out;
  out.str("workload", args.workload)
      .integer("seed", static_cast<std::int64_t>(args.run.seed))
      .integer("seconds", args.run.seconds)
      .boolean("trace", traced)
      .boolean("correct", checks.failed == 0)
      .integer("attempted", checks.attempted)
      .integer("failed", checks.failed)
      .raw("failures", json_list(checks.messages))
      .raw("end_to_end", e2e)
      .raw("setup_samples_s", json_list(setup_s))
      .raw("pass_samples_s", json_list(pass_samples))
      .raw("peak_rss_samples_mb", json_list(plain.peak_rss_mb))
      .raw("counts", counts)
      .raw("host", host)
      .raw("details", w->details());
  if (traced) {
    std::vector<double> traced_samples;
    for (const PassResult& p : m.passes) traced_samples.push_back(p.pass_s);
    out.raw("traced_pass_samples_s", json_list(traced_samples))
        .num("traced_total_s", m.total_s())
        .num("setup_traced_s", last_setup_s)
        .raw("per_layer", layers_json(layers))
        .raw("setup_layers", layers_json(setup_layers));
  }
  w->teardown();
  std::cout << out.done() << std::endl;
  return 0;
}

}  // namespace
}  // namespace wheels::perfbench

int main(int argc, char** argv) {
  // The per-scenario process of cold-library:
  //   wheels_perfbench --generate NAME --cache DIR --out PREFIX --trace 0|1
  if (argc == 9 && std::string_view(argv[1]) == "--generate") {
    wheels::obs::install_thread_pool_hooks();
    return wheels::perfbench::generate_scenario(argv[2], argv[4], argv[6],
                                                std::string_view(argv[8]) == "1");
  }
  return wheels::perfbench::run(wheels::perfbench::parse(argc, argv));
}
