// wheels_campaign: command-line front end of the dataset layer.
//
//   wheels_campaign generate [options]    simulate + persist datasets
//   wheels_campaign info [options]        describe a cache directory
//   wheels_campaign export-csv [options]  dump a dataset as CSV files
//
// `generate` warms the content-addressed cache (WHEELS_DATASET_DIR,
// default build/dataset-cache/) so that every figure/table bench afterwards
// is a cache load instead of a fresh 8-day-campaign simulation. `info`
// validates container headers + checksums without decoding payloads.
// `export-csv` writes the consolidated per-record CSVs the study's
// published dataset uses.
#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <functional>

#include "apps/app_campaign.h"
#include "core/csv.h"
#include "core/table.h"
#include "core/thread_pool.h"
#include "dataset/cache.h"
#include "dataset/fingerprint.h"
#include "dataset/provider.h"
#include "dataset/serialize.h"
#include "logsync/timestamp.h"
#include "obs/metrics.h"
#include "obs/runtime.h"
#include "scenario/spec.h"
#include "trip/campaign.h"

namespace {

using namespace wheels;

int usage(std::ostream& os, int code) {
  os << "usage: wheels_campaign <command> [options]\n"
        "\n"
        "commands:\n"
        "  generate    simulate the measurement + app campaigns (and the\n"
        "              per-operator static baselines) and persist them to\n"
        "              the dataset cache; a warm cache makes this a no-op\n"
        "  info        list the datasets in a cache directory, validating\n"
        "              each container header and checksum\n"
        "  export-csv  write the campaign dataset as CSV files\n"
        "  list-scenarios\n"
        "              list the built-in scenario library\n"
        "\n"
        "options:\n"
        "  --dir DIR        cache directory (default: WHEELS_DATASET_DIR\n"
        "                   or build/dataset-cache)\n"
        "  --scenario S     built-in scenario name or path to a scenario\n"
        "                   JSON file (default paper-default)\n"
        "  --stride N       measurement-campaign cycle stride (default 8)\n"
        "  --apps-stride N  app-campaign cycle stride (default 10)\n"
        "  --seed S         override the scenario's campaign seed\n"
        "  --jobs N         worker threads for generate (default: the\n"
        "                   WHEELS_JOBS env var, else 1); any N produces\n"
        "                   byte-identical datasets\n"
        "  --skip-apps      generate: measurement campaign only\n"
        "  --skip-static    generate: skip the static baselines\n"
        "  --out DIR        export-csv: output directory (default .)\n"
        "  --metrics PATH   write a JSON-lines metrics snapshot on exit\n"
        "                   (same as WHEELS_METRICS=PATH)\n"
        "  --trace PATH     write a Chrome trace_event file on exit\n"
        "                   (same as WHEELS_TRACE=PATH)\n";
  return code;
}

long parse_long_or_exit(const std::string& text, const char* opt) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0' || v < 0) {
    std::cerr << "wheels_campaign: invalid value '" << text << "' for "
              << opt << "\n";
    std::exit(2);
  }
  return v;
}

struct Options {
  std::string command;
  std::string dir;
  std::string out = ".";
  std::string scenario = "paper-default";
  int stride = 8;
  int apps_stride = 10;
  std::optional<std::uint64_t> seed;  // --seed: overrides the scenario's
  int jobs = 0;  // 0 = resolve from WHEELS_JOBS
  bool skip_apps = false;
  bool skip_static = false;
  std::string metrics_path;  // --metrics: CLI twin of WHEELS_METRICS
  std::string trace_path;    // --trace: CLI twin of WHEELS_TRACE
};

Options parse_options(int argc, char** argv) {
  if (argc < 2) std::exit(usage(std::cerr, 2));
  Options o;
  o.command = argv[1];
  if (o.command == "-h" || o.command == "--help") {
    std::exit(usage(std::cout, 0));
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "wheels_campaign: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--dir") {
      o.dir = value();
    } else if (arg == "--out") {
      o.out = value();
    } else if (arg == "--scenario") {
      o.scenario = value();
    } else if (arg == "--stride") {
      o.stride = static_cast<int>(
          std::max(1L, parse_long_or_exit(value(), "--stride")));
    } else if (arg == "--apps-stride") {
      o.apps_stride = static_cast<int>(
          std::max(1L, parse_long_or_exit(value(), "--apps-stride")));
    } else if (arg == "--seed") {
      o.seed =
          static_cast<std::uint64_t>(parse_long_or_exit(value(), "--seed"));
    } else if (arg == "--jobs") {
      o.jobs = static_cast<int>(parse_long_or_exit(value(), "--jobs"));
    } else if (arg == "--skip-apps") {
      o.skip_apps = true;
    } else if (arg == "--skip-static") {
      o.skip_static = true;
    } else if (arg == "--metrics") {
      o.metrics_path = value();
    } else if (arg == "--trace") {
      o.trace_path = value();
    } else if (arg == "-h" || arg == "--help") {
      std::exit(usage(std::cout, 0));
    } else {
      std::cerr << "wheels_campaign: unknown option '" << arg << "'\n";
      std::exit(usage(std::cerr, 2));
    }
  }
  return o;
}

scenario::ScenarioSpec scenario_spec(const Options& o) {
  try {
    scenario::ScenarioSpec spec = scenario::load_scenario(o.scenario);
    if (o.seed) spec.seed = *o.seed;
    return spec;
  } catch (const std::exception& e) {
    std::cerr << "wheels_campaign: " << e.what() << "\n";
    std::exit(2);
  }
}

trip::CampaignConfig campaign_config(const Options& o) {
  return trip::CampaignConfig::from_scenario(scenario_spec(o), o.stride);
}

apps::AppCampaignConfig app_config(const Options& o) {
  return apps::AppCampaignConfig::from_scenario(scenario_spec(o),
                                                o.apps_stride);
}

// --- list-scenarios ---------------------------------------------------------

int cmd_list_scenarios() {
  TextTable t({"name", "waypoints", "description"});
  for (const auto& spec : scenario::builtin_scenarios()) {
    t.add_row({spec.name, std::to_string(spec.route.waypoints.size()),
               spec.description});
  }
  t.print(std::cout);
  std::cout << "pass --scenario NAME (or a path to a scenario JSON file) "
               "to generate/export-csv\n";
  return 0;
}

// --- generate ---------------------------------------------------------------

int cmd_generate(const Options& o) {
  dataset::ProviderOptions popts;
  popts.cache_dir = o.dir;
  popts.verbose = true;
  popts.jobs = o.jobs;
  dataset::CampaignProvider provider(popts);
  const auto cfg = campaign_config(o);
  const auto acfg = app_config(o);

  // Materialize every requested dataset up front (concurrently when --jobs
  // or WHEELS_JOBS allows), then print the report from the warm memo: the
  // stdout is identical for every jobs value.
  std::vector<std::function<void()>> work;
  work.emplace_back([&] { provider.load_or_run(cfg); });
  if (!o.skip_static) {
    for (auto op : ran::kAllOperators) {
      work.emplace_back([&, op] { provider.load_or_run_static(cfg, op); });
    }
  }
  if (!o.skip_apps) {
    work.emplace_back([&] { provider.load_or_run_apps(acfg); });
    if (!o.skip_static) {
      for (auto op : ran::kAllOperators) {
        work.emplace_back(
            [&, op] { provider.load_or_run_apps_static(acfg, op); });
      }
    }
  }
  parallel_for_each(provider.jobs(), work.size(),
                    [&](std::size_t i) { work[i](); });

  std::cout << "dataset cache: " << provider.cache().dir() << "\n";
  std::cout << "scenario: " << cfg.spec.name << "\n";
  const auto& res = provider.load_or_run(cfg);
  std::cout << "campaign (stride " << cfg.cycle_stride << "): "
            << res.for_op(ran::OperatorId::Verizon).kpi.size()
            << " KPI samples/op over " << res.days << " days\n";
  if (!o.skip_static) {
    for (auto op : ran::kAllOperators) {
      const auto& sb = provider.load_or_run_static(cfg, op);
      std::cout << "static baseline " << to_string(op) << ": "
                << sb.dl_tput_mbps.size() << " DL samples over "
                << sb.cities_tested << " cities\n";
    }
  }
  if (!o.skip_apps) {
    const auto& ares = provider.load_or_run_apps(acfg);
    std::cout << "app campaign (stride " << acfg.cycle_stride << "): "
              << ares.for_op(ran::OperatorId::Verizon).size()
              << " app runs/op\n";
    if (!o.skip_static) {
      for (auto op : ran::kAllOperators) {
        const auto& sb = provider.load_or_run_apps_static(acfg, op);
        std::cout << "app static baseline " << to_string(op) << ": "
                  << sb.size() << " runs\n";
      }
    }
  }
  std::cout << "simulations run: " << provider.campaign_simulations()
            << " campaign, " << provider.baseline_simulations()
            << " baseline; disk hits: " << provider.disk_hits() << "\n";
  return 0;
}

// --- info -------------------------------------------------------------------

int cmd_info(const Options& o) {
  namespace fs = std::filesystem;
  const std::string dir = dataset::resolve_cache_dir(o.dir);
  std::cout << "dataset cache: " << dir << "\n";
  std::error_code ec;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".wds") files.push_back(entry.path());
  }
  if (ec) {
    std::cerr << "wheels_campaign: cannot read " << dir << ": "
              << ec.message() << "\n";
    return 1;
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::cout << "(empty -- run `wheels_campaign generate` to warm it)\n";
    return 0;
  }

  // Per-operator container names carry an operator slug; recover the
  // OperatorId by re-deriving the canonical file name for each candidate.
  const auto op_for_file = [](const std::string& name, dataset::DatasetKind k,
                              std::uint64_t fingerprint) {
    for (auto op : ran::kAllOperators) {
      if (dataset::DatasetCache::file_name(k, fingerprint, op) == name) {
        return op;
      }
    }
    return ran::OperatorId::Verizon;  // kind is not per-operator
  };

  // Validation goes through DatasetCache::load -- the same instrumented
  // path the provider uses -- so the hit/miss/bytes counters below report
  // exactly what a bench run against this cache would see.
  dataset::DatasetCache cache(dir);
  TextTable t({"file", "kind", "fingerprint", "payload", "status"});
  int bad = 0;
  for (const auto& path : files) {
    // Only the header is read here; cache.load below reads the file once.
    // A non-regular entry (a FIFO would block the open) has no header.
    std::string head;
    if (fs::is_regular_file(path, ec)) {
      head.resize(dataset::kHeaderBytes);
      std::ifstream is(path, std::ios::binary);
      is.read(head.data(), static_cast<std::streamsize>(head.size()));
      head.resize(static_cast<std::size_t>(is.gcount()));
    }
    const auto header = dataset::parse_header(head);
    if (!header) {
      t.add_row({path.filename().string(), "?", "?", "?", "bad header"});
      ++bad;
      continue;
    }
    char fp[17];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(header->fingerprint));
    const auto name = path.filename().string();
    const bool ok =
        cache
            .load(header->kind, header->fingerprint,
                  op_for_file(name, header->kind, header->fingerprint))
            .has_value();
    if (!ok) ++bad;
    t.add_row({name, std::string(dataset::to_string(header->kind)), fp,
               std::to_string(header->payload_bytes) + " B",
               ok ? "ok" : "CORRUPT"});
  }
  t.print(std::cout);
  std::cout << files.size() << " dataset(s), " << bad << " invalid\n";

  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const auto counter = [&snap](std::string_view name) -> long long {
    const obs::MetricValue* mv = snap.find(name);
    return mv != nullptr ? static_cast<long long>(mv->value) : 0;
  };
  std::cout << "cache ops: " << counter("dataset.cache.hits") << " hits, "
            << counter("dataset.cache.misses") << " misses, "
            << counter("dataset.cache.bytes_read") << " bytes read\n";
  return bad == 0 ? 0 : 1;
}

// --- export-csv -------------------------------------------------------------

int cmd_export_csv(const Options& o) {
  dataset::ProviderOptions popts;
  popts.cache_dir = o.dir;
  popts.verbose = true;
  dataset::CampaignProvider provider(popts);
  const auto cfg = campaign_config(o);
  const auto& res = provider.load_or_run(cfg);

  std::filesystem::create_directories(o.out);
  const logsync::LogClock utc{logsync::ClockKind::Utc, {}};
  auto stamp = [&](SimTime t) { return logsync::format_timestamp(t, utc); };
  std::size_t rows = 0;

  auto open_csv = [&](const std::string& name,
                      const std::vector<std::string>& header) {
    auto os = std::make_unique<std::ofstream>(o.out + "/" + name);
    CsvWriter(*os).write_row(header);
    return os;
  };

  {
    auto os = open_csv(
        "kpi.csv", {"utc_time", "operator", "test", "test_id", "pos_km",
                    "speed_mph", "timezone", "tech", "rsrp_dbm", "mcs",
                    "bler", "num_cc", "tput_mbps", "handovers", "server"});
    CsvWriter w(*os);
    for (const auto& log : res.logs) {
      for (const auto& s : log.kpi) {
        w.write_row({stamp(s.time), std::string(to_string(s.op)),
                     std::string(to_string(s.test)),
                     std::to_string(s.test_id),
                     fmt(s.position.kilometers(), 3), fmt(s.speed.value, 1),
                     std::string(to_string(s.tz)),
                     s.connected ? std::string(to_string(s.tech)) : "none",
                     fmt(s.rsrp_dbm, 1), fmt(s.mcs, 1), fmt(s.bler, 3),
                     fmt(s.num_cc, 1), fmt(s.tput_mbps, 3),
                     std::to_string(s.handovers),
                     std::string(to_string(s.server))});
        ++rows;
      }
    }
  }
  {
    auto os = open_csv("rtt.csv",
                       {"utc_time", "operator", "test_id", "pos_km",
                        "speed_mph", "success", "rtt_ms", "tech", "server"});
    CsvWriter w(*os);
    for (const auto& log : res.logs) {
      for (const auto& s : log.rtt) {
        w.write_row({stamp(s.time), std::string(to_string(s.op)),
                     std::to_string(s.test_id),
                     fmt(s.position.kilometers(), 3), fmt(s.speed.value, 1),
                     s.success ? "1" : "0", fmt(s.rtt_ms, 3),
                     s.connected ? std::string(to_string(s.tech)) : "none",
                     std::string(to_string(s.server))});
        ++rows;
      }
    }
  }
  {
    auto os = open_csv("passive.csv",
                       {"utc_time", "operator", "pos_km", "speed_mph",
                        "timezone", "tech", "cell"});
    CsvWriter w(*os);
    for (const auto& log : res.logs) {
      for (const auto& s : log.passive) {
        w.write_row({stamp(s.time), std::string(to_string(s.op)),
                     fmt(s.position.kilometers(), 3), fmt(s.speed.value, 1),
                     std::string(to_string(s.tz)),
                     s.connected ? std::string(to_string(s.tech)) : "none",
                     std::to_string(s.cell)});
        ++rows;
      }
    }
  }
  {
    auto os = open_csv(
        "tests.csv",
        {"utc_start", "operator", "test", "test_id", "duration_ms",
         "start_km", "distance_km", "server", "mean", "stddev", "samples",
         "handovers", "frac_high_speed_5g", "bytes"});
    CsvWriter w(*os);
    for (const auto& log : res.logs) {
      for (const auto& s : log.tests) {
        w.write_row(
            {stamp(s.start), std::string(to_string(s.op)),
             std::string(to_string(s.test)), std::to_string(s.test_id),
             fmt(s.duration.value, 0), fmt(s.start_position.kilometers(), 3),
             fmt(s.distance.kilometers(), 3),
             std::string(to_string(s.server)), fmt(s.mean, 3),
             fmt(s.stddev, 3), std::to_string(s.samples),
             std::to_string(s.handovers), fmt(s.frac_high_speed_5g, 4),
             fmt(s.bytes_transferred, 0)});
        ++rows;
      }
    }
  }
  {
    auto os = open_csv("handovers.csv",
                       {"utc_time", "operator", "source", "duration_ms",
                        "from_tech", "to_tech", "from_cell", "to_cell",
                        "pos_km"});
    CsvWriter w(*os);
    for (const auto& log : res.logs) {
      auto dump = [&](const std::vector<ran::HandoverRecord>& hos,
                      const char* source) {
        for (const auto& h : hos) {
          w.write_row({stamp(h.time), std::string(to_string(log.op)),
                       source, fmt(h.duration.value, 1),
                       std::string(to_string(h.from_tech)),
                       std::string(to_string(h.to_tech)),
                       std::to_string(h.from_cell),
                       std::to_string(h.to_cell),
                       fmt(h.position.kilometers(), 3)});
          ++rows;
        }
      };
      dump(log.test_handovers, "test");
      dump(log.passive_handovers, "passive");
    }
  }

  std::cout << "wrote " << rows << " rows to " << o.out
            << "/{kpi,rtt,passive,tests,handovers}.csv (stride "
            << cfg.cycle_stride << ", seed " << cfg.seed << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  // Env vars first, CLI flags second: --metrics/--trace win when both name
  // a path. Exports flush at process exit.
  obs::init_from_env();
  if (!o.metrics_path.empty()) obs::set_metrics_export_path(o.metrics_path);
  if (!o.trace_path.empty()) obs::set_trace_export_path(o.trace_path);
  if (o.command == "generate") return cmd_generate(o);
  if (o.command == "info") return cmd_info(o);
  if (o.command == "export-csv") return cmd_export_csv(o);
  if (o.command == "list-scenarios") return cmd_list_scenarios();
  std::cerr << "wheels_campaign: unknown command '" << o.command << "'\n";
  return usage(std::cerr, 2);
}
