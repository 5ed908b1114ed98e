// gridmon_cli: run any experiment from the command line.
//
//   gridmon_cli list [prefix] [--system NAME]
//       Print every scenario id in the built-in registry (optionally
//       filtered by id prefix and/or backend name: narada, rgma, mqtt)
//       with its description.
//
//   gridmon_cli run <id|prefix>... [--seeds N] [--jobs N]
//               [--minutes M | --quick] [--csv|--json] [--slo]
//               [--trace-out DIR] [--series-out DIR]
//       Resolve each argument against the registry (exact id first, then
//       prefix expansion), fan the campaign out over a worker pool and
//       print the aggregated per-scenario table. --quick runs 2 virtual
//       minutes instead of the default 5; --csv/--json dump the raw
//       per-run rows instead. Progress goes to stderr.
//       --trace-out writes one Perfetto-loadable Chrome trace JSON per run
//       (hop spans + fault windows); --series-out writes one windowed
//       time-series CSV per run. Either flag switches observability on;
//       fault-injection scenarios also get a loss-over-time sparkline in
//       the table output.
//
//   gridmon_cli report <figure>...|all [run's flags]
//       Print the paper's tables and figures (core/figures.hpp). Their
//       scenarios run as one campaign, each id once, with series-only
//       observability; defaults are the paper's 30 virtual minutes and
//       2 seeds on one worker per hardware thread. Exits 1 when a figure's
//       check fails.
//
//   gridmon_cli diff <baseline.json> <candidate.json> [--json]
//               [--tolerance PCT] [--timing-tolerance PCT]
//       Compare two campaign JSON documents (from `run --json`) aligned by
//       (scenario, seed): per-metric deltas with a verdict. Deterministic
//       metrics use --tolerance (default 2%), wall-clock metrics the looser
//       advisory --timing-tolerance (default 10%). Exits 1 on regression,
//       2 when the documents cannot be compared (schema mismatch).
//
// A number flag outside its type or range exits 2 naming the flag.
#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.hpp"
#include "core/figures.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "obs/export.hpp"
#include "util/chart.hpp"
#include "util/table.hpp"

using namespace gridmon;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s list [prefix] [--system NAME]\n"
      "       %s run <id|prefix>... [--seeds N] [--jobs N]\n"
      "           [--minutes M | --quick] [--csv|--json] [--slo]\n"
      "           [--trace-out DIR] [--series-out DIR]\n"
      "       %s report <figure>...|all [run's flags; defaults\n"
      "           --minutes 30 --seeds 2, one job per hardware thread]\n"
      "       %s diff <baseline.json> <candidate.json> [--json]\n"
      "           [--tolerance PCT] [--timing-tolerance PCT]\n",
      argv0, argv0, argv0, argv0);
  std::exit(2);
}

/// The longest --minutes: half of SimTime's range, so the ramp and drain a
/// run adds to its duration cannot overflow the clock either.
constexpr int kMaxMinutes = static_cast<int>(
    std::numeric_limits<SimTime>::max() / 2 / units::minutes(1));

/// The value after the flag at argv[i], parsed whole as a T in [lo, hi].
/// Trailing text, a value outside the range and anything that is not a
/// number exit 2 with a message naming the flag.
template <typename T>
T number_arg(int argc, char** argv, int& i, T lo, T hi) {
  if (i + 1 >= argc) usage(argv[0]);
  const char* flag = argv[i];
  const std::string_view text = argv[++i];
  T value{};
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size() ||
      !(value >= lo && value <= hi)) {
    auto show = [](T bound) {
      char buffer[32];
      return std::string(buffer,
                         std::to_chars(buffer, buffer + sizeof(buffer), bound)
                             .ptr);
    };
    std::fprintf(stderr, "%s: %s expects a number in [%s, %s], got '%.*s'\n",
                 argv[0], flag, show(lo).c_str(), show(hi).c_str(),
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  return value;
}

/// "chaos/narada/broker_crash" -> "chaos_narada_broker_crash__seed3".
std::string run_file_stem(const core::RunRecord& record) {
  std::string stem = record.scenario_id;
  for (char& c : stem) {
    if (c == '/') c = '_';
  }
  stem += "__seed" + std::to_string(record.seed);
  return stem;
}

bool write_file(const std::filesystem::path& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    return false;
  }
  out << body;
  return true;
}

bool spec_has_faults(const core::ScenarioSpec& spec) {
  return std::visit(
      [](const auto& config) {
        using T = std::decay_t<decltype(config)>;
        if constexpr (std::is_same_v<T, core::NaradaConfig> ||
                      std::is_same_v<T, core::RgmaConfig> ||
                      std::is_same_v<T, core::MqttConfig>) {
          return !config.faults.events.empty();
        } else {
          return false;
        }
      },
      spec.config);
}

int cmd_list(int argc, char** argv) {
  std::string prefix;
  std::string system;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--system") {
      if (i + 1 >= argc) usage(argv[0]);
      system = argv[++i];
    } else {
      prefix = arg;
    }
  }
  const auto& registry = core::builtin_registry();
  util::TextTable table({"id", "system", "description"});
  int shown = 0;
  for (const auto& spec : registry.all()) {
    if (!prefix.empty() && spec.id.rfind(prefix, 0) != 0) continue;
    if (!system.empty() && system != spec.system()) continue;
    table.add_row({spec.id, spec.system(), spec.description});
    ++shown;
  }
  if (shown == 0) {
    if (!system.empty()) {
      std::fprintf(stderr, "no scenario matches prefix '%s' with system '%s'\n",
                   prefix.c_str(), system.c_str());
    } else {
      std::fprintf(stderr, "no scenario id starts with '%s'\n", prefix.c_str());
    }
    return 1;
  }
  std::printf("%s%d scenario(s)\n", table.render().c_str(), shown);
  return 0;
}

/// The flags `run` and `report` share.
struct CampaignArgs {
  std::vector<std::string> targets;  ///< ids or prefixes; report: figures
  core::CampaignOptions options;
  int minutes = 5;
  bool csv = false;
  bool json = false;
  bool slo = false;
  std::string trace_out;
  std::string series_out;
};

/// Parse `run`'s flags on top of `args`, which holds the command's
/// defaults.
CampaignArgs parse_campaign_args(int argc, char** argv, CampaignArgs args) {
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--slo") {
      args.slo = true;
    } else if (flag == "--seeds") {
      args.options.seeds = number_arg(argc, argv, i, 1, INT_MAX);
    } else if (flag == "--jobs") {
      args.options.jobs = number_arg(argc, argv, i, 0, INT_MAX);
    } else if (flag == "--minutes") {
      args.minutes = number_arg(argc, argv, i, 1, kMaxMinutes);
    } else if (flag == "--quick") {
      args.minutes = 2;
    } else if (flag == "--csv") {
      args.csv = true;
    } else if (flag == "--json") {
      args.json = true;
    } else if (flag == "--trace-out") {
      if (i + 1 >= argc) usage(argv[0]);
      args.trace_out = argv[++i];
    } else if (flag == "--series-out") {
      if (i + 1 >= argc) usage(argv[0]);
      args.series_out = argv[++i];
    } else if (!flag.empty() && flag[0] == '-') {
      usage(argv[0]);
    } else {
      args.targets.push_back(flag);
    }
  }
  if (args.targets.empty()) usage(argv[0]);
  args.options.duration = units::minutes(args.minutes);
  args.options.progress = [](int done, int total,
                             const core::RunRecord& record) {
    std::fprintf(stderr, "[%3d/%3d] %s seed=%llu (%.1fs)\n", done, total,
                 record.scenario_id.c_str(),
                 static_cast<unsigned long long>(record.seed),
                 record.wall_seconds);
  };
  return args;
}

/// A runner over `specs`, each id once. The export flags switch
/// observability on; fault scenarios get the time series regardless (for
/// the loss sparkline). Spans are only collected for a trace sink.
core::CampaignRunner make_runner(const CampaignArgs& args,
                                 std::vector<core::ScenarioSpec> specs) {
  core::CampaignOptions options = args.options;
  bool any_fault_spec = false;
  for (const auto& spec : specs) any_fault_spec |= spec_has_faults(spec);
  if (!args.trace_out.empty() || !args.series_out.empty() ||
      any_fault_spec || options.obs.enabled) {
    options.obs.enabled = true;
    options.obs.span_sample_every = args.trace_out.empty() ? 0 : 16;
    if (!obs::kEnabled) {
      std::fprintf(stderr,
                   "note: built with GRIDMON_OBS=OFF; traces and series "
                   "will be empty\n");
    }
  }
  core::CampaignRunner runner(options);
  for (auto& spec : specs) runner.add(std::move(spec));
  if (runner.scenarios().size() >
      static_cast<std::size_t>(INT_MAX / options.seeds)) {
    std::fprintf(stderr, "--seeds %d x %zu scenarios is more runs than a "
                         "campaign can count\n",
                 options.seeds, runner.scenarios().size());
    std::exit(2);
  }
  return runner;
}

/// Run the campaign with progress and a summary on stderr, then write the
/// --trace-out / --series-out exports.
core::Campaign run_campaign(const CampaignArgs& args,
                            core::CampaignRunner& runner) {
  const int jobs = args.options.jobs;
  std::fprintf(stderr, "campaign: %zu scenario(s) x %d seed(s), %d min "
                       "virtual, jobs=%s\n",
               runner.scenarios().size(), args.options.seeds, args.minutes,
               jobs > 0 ? std::to_string(jobs).c_str() : "auto");

  core::Campaign campaign = runner.run();
  std::uint64_t sim_events = 0;
  double run_seconds = 0;
  for (const auto& record : campaign.runs()) {
    sim_events += record.results.kernel.events_executed;
    run_seconds += record.wall_seconds;
  }
  std::fprintf(stderr,
               "campaign finished in %.1fs wall-clock (%llu kernel events, "
               "%.2fM events/s per worker)\n",
               campaign.wall_seconds(),
               static_cast<unsigned long long>(sim_events),
               run_seconds > 0
                   ? static_cast<double>(sim_events) / run_seconds / 1e6
                   : 0.0);

  // Per-run observability exports.
  const std::string& trace_out = args.trace_out;
  const std::string& series_out = args.series_out;
  if (!trace_out.empty() || !series_out.empty()) {
    std::error_code ec;
    if (!trace_out.empty()) {
      std::filesystem::create_directories(trace_out, ec);
    }
    if (!series_out.empty()) {
      std::filesystem::create_directories(series_out, ec);
    }
    int traces = 0;
    int series = 0;
    for (const auto& record : campaign.runs()) {
      if (!record.results.obs) continue;
      const std::string stem = run_file_stem(record);
      if (!trace_out.empty()) {
        const auto path =
            std::filesystem::path(trace_out) / (stem + ".trace.json");
        if (write_file(path, obs::chrome_trace_json(*record.results.obs))) {
          ++traces;
        }
      }
      if (!series_out.empty()) {
        const auto dir = std::filesystem::path(series_out);
        if (write_file(dir / (stem + ".series.csv"),
                       obs::series_csv(*record.results.obs))) {
          ++series;
        }
        write_file(dir / (stem + ".series.json"),
                   obs::series_json(*record.results.obs));
      }
    }
    if (!trace_out.empty()) {
      std::fprintf(stderr,
                   "wrote %d trace file(s) to %s (open in "
                   "https://ui.perfetto.dev)\n",
                   traces, trace_out.c_str());
    }
    if (!series_out.empty()) {
      std::fprintf(stderr, "wrote %d series file(s) to %s\n", series,
                   series_out.c_str());
    }
  }
  return campaign;
}

/// --slo gates the exit code on the per-run SLO verdicts (CI usage); the
/// verdicts were evaluated by run_scenario, this only tallies them.
int slo_exit(const CampaignArgs& args, const core::Campaign& campaign) {
  if (!args.slo) return 0;
  int failures = 0;
  for (const auto& record : campaign.runs()) {
    if (record.results.slo.evaluated && !record.results.slo.pass) ++failures;
  }
  if (failures == 0) return 0;
  std::fprintf(stderr, "SLO: %d run(s) violated their objectives\n",
               failures);
  return 1;
}

/// --csv / --json: the raw per-run rows instead of tables. The JSON carries
/// the (nondeterministic) timing fields: it is for humans and dashboards.
bool print_rows(const CampaignArgs& args, const core::Campaign& campaign) {
  if (!args.csv && !args.json) return false;
  std::printf("%s", args.csv ? campaign.csv().c_str()
                             : campaign.json(/*include_timing=*/true).c_str());
  return true;
}

int cmd_run(int argc, char** argv) {
  const CampaignArgs args = parse_campaign_args(argc, argv, {});

  const auto& registry = core::builtin_registry();
  // Resolve ids first (obs enablement looks at the resolved specs).
  std::vector<core::ScenarioSpec> specs;
  for (const auto& id : args.targets) {
    const std::size_t before = specs.size();
    if (const core::ScenarioSpec* spec = registry.find(id)) {
      specs.push_back(*spec);
    } else {
      for (const core::ScenarioSpec* match : registry.match(id)) {
        specs.push_back(*match);
      }
    }
    if (specs.size() == before) {
      std::fprintf(stderr, "unknown scenario id or prefix: %s\n", id.c_str());
      std::fprintf(stderr, "(try: %s list)\n", argv[0]);
      return 2;
    }
  }

  core::CampaignRunner runner = make_runner(args, std::move(specs));
  const core::Campaign campaign = run_campaign(args, runner);
  if (print_rows(args, campaign)) return slo_exit(args, campaign);
  // Aggregated per-scenario table (pooled seeds, the paper's merge). Chaos
  // scenarios (any injected faults) get the availability columns appended.
  bool any_faults = false;
  for (const core::RunRecord& run : campaign.runs()) {
    any_faults |= run.results.availability.fault_events > 0;
  }
  std::vector<std::string> headers = {"scenario",     "RTT (ms)",
                                      "STDDEV (ms)",  "loss (%)",
                                      "CPU idle (%)", "mem (MB)",
                                      "B/gen",        "refused"};
  if (any_faults) {
    for (const char* h : {"faults", "TTR (ms)", "lost in", "lost post",
                          "late", "reconnects", "backfill"}) {
      headers.emplace_back(h);
    }
  }
  util::TextTable table(headers);
  for (const auto& spec : runner.scenarios()) {
    const auto pooled = campaign.pooled(spec.id);
    std::vector<std::string> row = {
        spec.id, util::TextTable::format(pooled.metrics.rtt_mean_ms()),
        util::TextTable::format(pooled.metrics.rtt_stddev_ms()),
        util::TextTable::format(pooled.metrics.loss_rate() * 100.0, 4),
        util::TextTable::format(pooled.servers.cpu_idle_pct, 1),
        std::to_string(pooled.servers.memory_bytes / units::MiB),
        // Model bytes per monitored generator (worst seed); "-" when the
        // run carries no memory profile or no fleet-size tag.
        pooled.generators > 0 && pooled.mem.peak_total > 0
            ? util::TextTable::format(pooled.bytes_per_generator(), 1)
            : "-",
        std::to_string(pooled.refused)};
    if (any_faults) {
      const auto& a = pooled.availability;
      row.push_back(std::to_string(a.fault_events));
      row.push_back(util::TextTable::format(a.time_to_recover_ms, 1));
      row.push_back(std::to_string(a.lost_in_window));
      row.push_back(std::to_string(a.lost_post_window));
      row.push_back(std::to_string(a.delivered_late));
      row.push_back(std::to_string(a.reconnects + a.resubscribes +
                                   a.reregistrations));
      row.push_back(std::to_string(a.backfill_msgs));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s", table.render().c_str());

  // SLO verdict table: one row per (scenario, seed) with a declared spec,
  // worst run first within a scenario.
  if (args.slo) {
    util::TextTable slo_table(
        {"scenario", "seed", "verdict", "worst burn", "worst violation"});
    int slo_rows = 0;
    for (const auto& record : campaign.runs()) {
      const auto& report = record.results.slo;
      if (!report.evaluated) continue;
      slo_table.add_row({record.scenario_id, std::to_string(record.seed),
                         report.pass ? "pass" : "FAIL",
                         util::TextTable::format(report.worst_burn, 3),
                         report.worst_violation()});
      ++slo_rows;
    }
    if (slo_rows == 0) {
      std::printf("\n(no scenario in this campaign declares an SLO)\n");
    } else {
      std::printf("\nSLO verdicts (burn > 1 violates):\n%s",
                  slo_table.render().c_str());
    }
  }

  // Loss-over-time sparklines around the fault windows (chaos scenarios,
  // obs-enabled runs only). One line per run; '^' marks the sample windows
  // overlapping an injected fault.
  if (any_faults) {
    bool printed_header = false;
    for (const auto& record : campaign.runs()) {
      const auto& report = record.results.obs;
      if (!report) continue;
      const auto loss = obs::loss_percent_series(*report, "sent", "received");
      if (loss.loss_pct.empty()) continue;
      const std::vector<double>& values = loss.loss_pct;
      double peak = 0;
      for (double v : values) peak = std::max(peak, v);
      std::string fault_marks(values.size(), ' ');
      for (std::size_t i = 0; i < values.size(); ++i) {
        const SimTime window_begin = i > 0 ? loss.at[i - 1] : 0;
        for (const auto& span : report->chaos) {
          if (span.end >= window_begin && span.begin <= loss.at[i]) {
            fault_marks[i] = '^';
            break;
          }
        }
      }
      if (!printed_header) {
        std::printf("\nloss%% over time (peak window loss; ^ = fault):\n");
        printed_header = true;
      }
      std::printf("  %-44s |%s| peak %.1f%%\n",
                  (record.scenario_id + " seed=" +
                   std::to_string(record.seed)).c_str(),
                  util::sparkline(values).c_str(), peak);
      if (fault_marks.find('^') != std::string::npos) {
        const std::size_t width =
            std::min(values.size(), static_cast<std::size_t>(72));
        // Downsample the fault marks the same way sparkline buckets.
        std::string marks(width, ' ');
        for (std::size_t c = 0; c < width; ++c) {
          const std::size_t begin = c * values.size() / width;
          const std::size_t end =
              std::max(begin + 1, (c + 1) * values.size() / width);
          for (std::size_t i = begin; i < end; ++i) {
            if (fault_marks[i] == '^') marks[c] = '^';
          }
        }
        std::printf("  %-44s |%s|\n", "", marks.c_str());
      }
    }
  }
  return slo_exit(args, campaign);
}

int cmd_report(int argc, char** argv) {
  // The paper's 30 virtual minutes (CampaignOptions already defaults to its
  // 2 seeds), on one worker per hardware thread.
  CampaignArgs defaults;
  defaults.minutes = 30;
  defaults.options.jobs = 0;
  CampaignArgs args = parse_campaign_args(argc, argv, defaults);

  const auto& catalogue = core::figure_catalogue();
  std::vector<const core::Figure*> figures;
  auto select = [&](const core::Figure& figure) {
    if (std::find(figures.begin(), figures.end(), &figure) == figures.end()) {
      figures.push_back(&figure);
    }
  };
  for (const auto& name : args.targets) {
    if (name == "all") {
      for (const auto& figure : catalogue) select(figure);
    } else if (const core::Figure* figure = core::find_figure(name)) {
      select(*figure);
    } else {
      std::string names;
      for (const auto& figure : catalogue) names += " " + figure.name;
      std::fprintf(stderr, "unknown figure: %s\nfigures:%s all\n",
                   name.c_str(), names.c_str());
      return 2;
    }
  }

  // Series-only observability: the chaos sparklines and the memory
  // columns read it, and the sampler never perturbs the model.
  args.options.obs.enabled = true;
  const auto& registry = core::builtin_registry();
  std::vector<core::ScenarioSpec> specs;
  for (const core::Figure* figure : figures) {
    for (const auto& id : figure->scenario_ids()) {
      specs.push_back(*registry.find(id));
    }
  }
  core::CampaignRunner runner = make_runner(args, std::move(specs));
  const core::Campaign campaign = run_campaign(args, runner);
  if (print_rows(args, campaign)) return slo_exit(args, campaign);

  const core::FigureContext context{campaign, args.minutes,
                                    args.options.seeds};
  int status = 0;
  for (const core::Figure* figure : figures) {
    std::printf("%s", core::render_figure(*figure, context).c_str());
    if (figure->check && !figure->check(campaign)) {
      std::fprintf(stderr, "report: %s check failed\n",
                   figure->name.c_str());
      status = 1;
    }
  }
  return std::max(status, slo_exit(args, campaign));
}

int cmd_diff(int argc, char** argv) {
  std::vector<std::string> files;
  core::DiffOptions options;
  bool json = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--json") {
      json = true;
    } else if (flag == "--tolerance") {
      options.rel_tolerance_pct = number_arg(
          argc, argv, i, 0.0, std::numeric_limits<double>::max());
    } else if (flag == "--timing-tolerance") {
      options.timing_tolerance_pct = number_arg(
          argc, argv, i, 0.0, std::numeric_limits<double>::max());
    } else if (!flag.empty() && flag[0] == '-') {
      usage(argv[0]);
    } else {
      files.push_back(flag);
    }
  }
  if (files.size() != 2) usage(argv[0]);

  auto read_file = [](const std::string& path, std::string& out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    out.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    return true;
  };
  std::string baseline;
  std::string candidate;
  if (!read_file(files[0], baseline)) {
    std::fprintf(stderr, "cannot read baseline %s\n", files[0].c_str());
    return 2;
  }
  if (!read_file(files[1], candidate)) {
    std::fprintf(stderr, "cannot read candidate %s\n", files[1].c_str());
    return 2;
  }

  const core::CampaignDiff diff =
      core::diff_campaigns(baseline, candidate, options);
  std::printf("%s", json ? diff.json().c_str() : diff.table().c_str());
  if (!diff.comparable) {
    if (json) std::fprintf(stderr, "diff refused: %s\n", diff.error.c_str());
    return 2;
  }
  return diff.regression ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string command = argv[1];
  if (command == "list") return cmd_list(argc, argv);
  if (command == "run") return cmd_run(argc, argv);
  if (command == "report") return cmd_report(argc, argv);
  if (command == "diff") return cmd_diff(argc, argv);
  usage(argv[0]);
}
