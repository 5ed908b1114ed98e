// gridbench_repetition: one repetition of one gridbench workload, in its own
// process, so set-up time and peak RSS are those of a fresh run.
//
//   gridbench_repetition <workload> [--seed N] [--jobs N] [--trace FILE]
//
// Workloads, each a fixed batch of simulated work on one scenario seed
// (CampaignOptions::first_seed, default 1):
//   mqtt_highrate   mqtt/highrate/100 on one worker, 2 virtual minutes
//   hier_1m         hier/narada/1m on one worker, 2 virtual minutes
//   paper_campaign  every narada/, rgma/, chaos/ and ablation/ scenario at
//                   5 virtual minutes (every fault window fires) on two
//                   workers, or --jobs N
//
// Prints one JSON object: set-up, wall and CPU seconds, peak RSS, the
// FNV-1a digest of the timing-free Campaign::csv(), correctness failures,
// per-run walls, and the deterministic counts the per-layer metrics read.
// Without --trace every run has obs off, even where its preset turns obs on,
// so the repetition times the model alone. With --trace FILE the campaign
// runs with obs on; the process then replays each layer's public functions
// on the workload's own inputs (replay.hpp) and writes every span to FILE as
// trace-event JSON.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "core/campaign.hpp"
#include "core/registry.hpp"
#include "replay.hpp"
#include "spans.hpp"

namespace {

using namespace gridmon;
using gridbench::ScopedSpan;
using gridbench::SpanLog;

struct Workload {
  const char* name;
  std::vector<const char*> prefixes;
  SimTime duration;
  int workers;
};

// The single-run workloads are kept short so that one invocation holds
// enough repetitions for a median. The campaign runs on two workers, fewer
// than a small host has hardware threads: a pool with a worker on every
// thread competes with everything else the host runs, and its wall and CPU
// time then follow the host's load.
const std::vector<Workload> kWorkloads = {
    {"mqtt_highrate", {"mqtt/highrate/100"}, units::minutes(2), 1},
    {"hier_1m", {"hier/narada/1m"}, units::minutes(2), 1},
    {"paper_campaign",
     {"narada/", "rgma/", "chaos/", "ablation/"},
     units::minutes(5),
     2},
};

/// Switches off the obs a preset may turn on itself (the hier/* scale
/// sweeps do).
void disable_obs(core::ScenarioSpec& spec) {
  std::visit(
      [](auto& config) {
        if constexpr (requires { config.obs.enabled; }) {
          config.obs.enabled = false;
        }
      },
      spec.config);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: gridbench_repetition "
               "mqtt_highrate|hier_1m|paper_campaign [--seed N] [--jobs N] "
               "[--trace FILE]\n");
  std::exit(2);
}

[[nodiscard]] std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

[[nodiscard]] double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set of this process image: VmHWM from /proc. getrusage's
/// ru_maxrss would also count the parent's peak, which Linux carries over
/// fork and exec into the child.
[[nodiscard]] double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Last sampled value of one obs Timeline column (0 if absent).
[[nodiscard]] double last_gauge(const core::Results& results,
                                std::string_view column) {
  if (!results.obs || results.obs->samples.empty()) return 0;
  const auto& columns = results.obs->columns;
  const auto it = std::find(columns.begin(), columns.end(), column);
  if (it == columns.end()) return 0;
  const auto& values = results.obs->samples.back().values;
  const auto index = static_cast<std::size_t>(it - columns.begin());
  return index < values.size() ? values[index] : 0;
}

/// The per-run correctness checks that feed failed_pct. Empty = pass.
[[nodiscard]] std::vector<std::string> check_run(
    const core::ScenarioSpec& spec, const core::RunRecord& run,
    SimTime duration) {
  std::vector<std::string> failures;
  const auto& metrics = run.results.metrics;
  if (run.scenario_id != spec.id) {
    failures.push_back(spec.id + ": run record is " + run.scenario_id);
  }
  if (metrics.received() > metrics.sent()) {
    failures.push_back(spec.id + ": received > sent");
  }
  if (const auto* hier = std::get_if<core::HierConfig>(&spec.config)) {
    const auto expected = static_cast<std::uint64_t>(
        hier->topology.generators * (duration / hier->topology.sample_period));
    if (metrics.sent() != expected || metrics.received() != expected) {
      failures.push_back(spec.id + ": sent/received " +
                         std::to_string(metrics.sent()) + "/" +
                         std::to_string(metrics.received()) + ", expected " +
                         std::to_string(expected));
    }
  }
  return failures;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void put(std::string& out, std::string_view key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  out += json_string(key) + ": " + buffer;
}

std::string host_fingerprint() {
  return "\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + json_string(GRIDBENCH_COMPILER) +
         ", \"build_type\": " + json_string(GRIDBENCH_BUILD_TYPE) +
         ", \"gridmon_obs\": " + json_string(GRIDBENCH_OBS);
}

}  // namespace

int main(int argc, char** argv) {
  const auto main_entry = SpanLog::Clock::now();
  if (argc < 2) usage();
  const std::string_view name = argv[1];
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr) usage();
  std::uint64_t seed = 1;
  int jobs = workload->workers;
  std::string trace_path;
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage();
    if (flag == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--jobs") {
      jobs = std::atoi(argv[++i]);
    } else if (flag == "--trace") {
      trace_path = argv[++i];
    } else {
      usage();
    }
  }
  if (jobs < 1) usage();
  const bool traced = !trace_path.empty();

  SpanLog spans(main_entry);
  SpanLog* log = traced ? &spans : nullptr;
  std::vector<double> run_walls;
  std::map<std::thread::id, int> worker_tracks;

  ScopedSpan setup(log, "setup", "core");
  ScopedSpan registry_span(log, "core.registry", "core", setup.id());
  const core::ScenarioRegistry& registry = core::builtin_registry();
  const double registry_s = registry_span.close();

  core::CampaignOptions options;
  options.jobs = jobs;
  options.seeds = 1;
  options.first_seed = seed;
  options.duration = workload->duration;
  options.obs.enabled = traced;
  int campaign_id = -1;
  options.progress = [&](int, int, const core::RunRecord& record) {
    // Serialised by the runner; the main thread is blocked in run().
    run_walls.push_back(record.wall_seconds);
    if (!traced) return;
    const int track =
        worker_tracks
            .try_emplace(std::this_thread::get_id(),
                         static_cast<int>(worker_tracks.size()) + 1)
            .first->second;
    const double end = spans.now();
    spans.add(gridbench::Span{"run " + record.scenario_id, "core", campaign_id,
                              track, end - record.wall_seconds, end});
  };
  core::CampaignRunner runner(options);
  for (const char* prefix : workload->prefixes) {
    const auto matches = registry.match(prefix);
    if (matches.empty()) {
      std::fprintf(stderr, "gridbench_repetition: no scenario matches %s\n",
                   prefix);
      return 1;
    }
    for (const core::ScenarioSpec* match : matches) {
      core::ScenarioSpec spec = *match;
      if (!traced) disable_obs(spec);
      runner.add(std::move(spec));
    }
  }
  // The runner starts no more workers than it has runs.
  jobs = std::min(jobs, runner.total_runs());
  setup.close();
  const double setup_s =
      std::chrono::duration<double>(SpanLog::Clock::now() - main_entry)
          .count();

  const double cpu_before = cpu_seconds();
  const auto run_begin = SpanLog::Clock::now();
  if (traced) campaign_id = spans.begin("core.campaign", "core");
  const core::Campaign campaign = runner.run();
  const double wall_s =
      std::chrono::duration<double>(SpanLog::Clock::now() - run_begin).count();
  const double cpu_s = cpu_seconds() - cpu_before;
  if (traced) spans.end(campaign_id);

  ScopedSpan export_span(log, "core.export", "core");
  const std::string csv = campaign.csv();
  std::size_t export_bytes = csv.size();
  if (traced) export_bytes += campaign.json().size();
  const double export_s = export_span.close();

  // Correctness checks and deterministic counts.
  const auto& specs = runner.scenarios();
  const auto& runs = campaign.runs();
  std::vector<std::string> failures;
  int failed_runs = 0;
  if (runs.size() != specs.size()) {
    failures.push_back("campaign returned " + std::to_string(runs.size()) +
                       " of " + std::to_string(specs.size()) + " runs");
    failed_runs = static_cast<int>(specs.size());
  }
  std::map<std::string, double> counts;
  std::vector<gridbench::RunInput> inputs;
  for (std::size_t i = 0; i < runs.size() && i < specs.size(); ++i) {
    const core::RunRecord& run = runs[i];
    const core::Results& r = run.results;
    const auto run_failures = check_run(specs[i], run, workload->duration);
    if (!run_failures.empty()) ++failed_runs;
    failures.insert(failures.end(), run_failures.begin(), run_failures.end());
    inputs.push_back({&specs[i], &run});

    counts["sim.events"] += static_cast<double>(r.kernel.events_executed);
    counts["sim.peak_queue_depth"] =
        std::max(counts["sim.peak_queue_depth"],
                 static_cast<double>(r.kernel.peak_queue_depth));
    counts["sim.overflow_events"] +=
        static_cast<double>(r.kernel.overflow_events);
    counts["sim.handles_materialised"] +=
        static_cast<double>(r.kernel.handles_materialised);
    counts["sim.callback_heap_allocs"] +=
        static_cast<double>(r.kernel.callback_heap_allocs);
    counts["sim.slab_bytes"] += static_cast<double>(r.kernel.slab_bytes);
    counts["net.wire_bytes"] += static_cast<double>(r.wire_bytes);
    counts["narada.events_forwarded"] +=
        static_cast<double>(r.events_forwarded);
    counts["mqtt.publishes_delivered"] +=
        last_gauge(r, "broker_publishes_delivered");
    counts["mqtt.retransmissions"] += last_gauge(r, "broker_retransmissions");
    counts["core.sent"] += static_cast<double>(r.metrics.sent());
    counts["core.received"] += static_cast<double>(r.metrics.received());
    counts["core.reconnects"] += static_cast<double>(r.availability.reconnects);
    counts["core.backfill_msgs"] +=
        static_cast<double>(r.availability.backfill_msgs);
    counts["obs.peak_model_bytes"] = std::max(
        counts["obs.peak_model_bytes"], static_cast<double>(r.mem.peak_total));
    counts["obs.spans_completed"] +=
        r.obs ? static_cast<double>(r.obs->traces.size()) : 0.0;
    const bool hier = std::holds_alternative<core::HierConfig>(specs[i].config);
    counts["hier.bytes_per_generator"] = std::max(
        counts["hier.bytes_per_generator"],
        hier && r.generators > 0 ? static_cast<double>(r.mem.peak_total) /
                                       static_cast<double>(r.generators)
                                 : 0.0);
  }

  std::map<std::string, double> layers;
  if (traced) {
    const int replay_id = spans.begin("replay", "core");
    gridbench::ReplayResult replay =
        gridbench::replay_layers(spans, replay_id, inputs, workload->duration);
    spans.end(replay_id);
    failures.insert(failures.end(), replay.failures.begin(),
                    replay.failures.end());
    if (!replay.failures.empty() &&
        failed_runs < static_cast<int>(specs.size())) {
      ++failed_runs;
    }
    layers = std::move(replay.metrics);
    double run_wall_sum = 0;
    for (const double w : run_walls) run_wall_sum += w;
    layers["core.registry_s"] = registry_s;
    layers["core.export_s"] = export_s;
    layers["unattributed_s"] = run_wall_sum - replay.self_seconds;

    std::ofstream trace(trace_path);
    trace << spans.trace_json(host_fingerprint() + ", \"workload\": " +
                              json_string(workload->name) +
                              ", \"seed\": " + std::to_string(seed));
    if (!trace) {
      std::fprintf(stderr, "gridbench_repetition: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
  }

  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(fnv1a(csv)));
  std::string out = "{\"workload\": " + json_string(workload->name) +
                    ", \"seed\": " + std::to_string(seed) +
                    ", \"jobs\": " + std::to_string(jobs) +
                    ", \"traced\": " + (traced ? "true" : "false") +
                    ", \"runs\": " + std::to_string(specs.size()) +
                    ", \"failed_runs\": " + std::to_string(failed_runs) +
                    ", \"digest\": " + json_string(digest) +
                    ", \"export_bytes\": " + std::to_string(export_bytes) +
                    ", ";
  put(out, "setup_s", setup_s);
  out += ", ";
  put(out, "wall_s", wall_s);
  out += ", ";
  put(out, "cpu_s", cpu_s);
  out += ", ";
  put(out, "peak_rss_mb", peak_rss_mib());
  out += ", \"run_walls\": [";
  for (std::size_t i = 0; i < run_walls.size(); ++i) {
    if (i > 0) out += ", ";
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.6f", run_walls[i]);
    out += buffer;
  }
  out += "], \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_string(failures[i]);
  }
  out += "], \"counts\": {";
  bool first = true;
  for (const auto& [key, value] : counts) {
    if (!first) out += ", ";
    first = false;
    put(out, key, value);
  }
  out += "}, \"layers\": {";
  first = true;
  for (const auto& [key, value] : layers) {
    if (!first) out += ", ";
    first = false;
    put(out, key, value);
  }
  out += "}, \"host\": {" + host_fingerprint() + "}}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}
