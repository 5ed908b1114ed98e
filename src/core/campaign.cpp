#include "core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/export.hpp"

namespace gridmon::core {

Results Campaign::pooled(std::string_view scenario_id) const {
  Results out;
  double idle = 0.0;
  std::int64_t mem = 0;
  std::int64_t count = 0;
  for (const auto& record : runs_) {
    if (record.scenario_id != scenario_id) continue;
    const Results& run = record.results;
    ++count;
    out.metrics.count_sent(run.metrics.sent());
    for (double rtt : run.metrics.rtt_ms().raw()) {
      // Re-record with zeroed phases; percentiles/mean come from here.
      out.metrics.record(0, 0, 0, static_cast<SimTime>(rtt * 1e6));
    }
    // Hierarchical runs deliver most samples in bulk (one RTT sample per
    // aggregate frame); carry the remainder so pooled loss stays honest.
    out.metrics.count_received(run.metrics.received() -
                               run.metrics.rtt_ms().count());
    out.generators = std::max(out.generators, run.generators);
    idle += run.servers.cpu_idle_pct;
    mem += run.servers.memory_bytes;
    out.refused += run.refused;
    out.events_forwarded += run.events_forwarded;
    out.wire_bytes += run.wire_bytes;
    out.completed = out.completed && run.completed;
    out.kernel.events_executed += run.kernel.events_executed;
    out.kernel.callback_heap_allocs += run.kernel.callback_heap_allocs;
    out.kernel.handles_materialised += run.kernel.handles_materialised;
    out.kernel.overflow_events += run.kernel.overflow_events;
    out.kernel.slab_chunks += run.kernel.slab_chunks;
    out.kernel.peak_queue_depth =
        std::max(out.kernel.peak_queue_depth, run.kernel.peak_queue_depth);
    out.availability.fault_events += run.availability.fault_events;
    out.availability.downtime_ms =
        std::max(out.availability.downtime_ms, run.availability.downtime_ms);
    out.availability.time_to_recover_ms =
        std::max(out.availability.time_to_recover_ms,
                 run.availability.time_to_recover_ms);
    out.availability.lost_in_window += run.availability.lost_in_window;
    out.availability.lost_post_window += run.availability.lost_post_window;
    out.availability.delivered_late += run.availability.delivered_late;
    out.availability.reconnects += run.availability.reconnects;
    out.availability.resubscribes += run.availability.resubscribes;
    out.availability.reregistrations += run.availability.reregistrations;
    out.availability.backfill_msgs += run.availability.backfill_msgs;
    out.availability.backfill_bytes += run.availability.backfill_bytes;
    // Per-window TTR pools element-wise worst case, mirroring the scalar
    // time_to_recover_ms max above.
    auto& pooled_ttr = out.availability.ttr_windows_ms;
    const auto& run_ttr = run.availability.ttr_windows_ms;
    if (pooled_ttr.size() < run_ttr.size()) {
      pooled_ttr.resize(run_ttr.size(), 0.0);
    }
    for (std::size_t w = 0; w < run_ttr.size(); ++w) {
      pooled_ttr[w] = std::max(pooled_ttr[w], run_ttr[w]);
    }
    // Memory footprint pools the worst case across seeds — the number the
    // capacity question ("does N clients fit?") actually needs.
    out.mem.enabled = out.mem.enabled || run.mem.enabled;
    for (std::size_t c = 0; c < obs::kMemCategoryCount; ++c) {
      out.mem.live[c] = std::max(out.mem.live[c], run.mem.live[c]);
      out.mem.peak[c] = std::max(out.mem.peak[c], run.mem.peak[c]);
    }
    out.mem.peak_total = std::max(out.mem.peak_total, run.mem.peak_total);
  }
  if (count == 0) return out;
  out.servers.cpu_idle_pct = idle / static_cast<double>(count);
  out.servers.memory_bytes = mem / count;
  return out;
}

std::vector<const RunRecord*> Campaign::records(
    std::string_view scenario_id) const {
  std::vector<const RunRecord*> out;
  for (const auto& run : runs_) {
    if (run.scenario_id == scenario_id) out.push_back(&run);
  }
  return out;
}

namespace {

// --- The campaign row -------------------------------------------------------
//
// One ordered table names every exported column once. The CSV carries the
// kBoth columns, the JSON every column as "name": value pairs; a new CSV
// column goes last, as the goldens hash every older column's place. A cell
// holds one run's value in each format; no JSON text means the run omits
// the key.
struct Cell {
  std::string csv;
  std::string json;
};

Cell number(const std::string& text) { return {text, text}; }
Cell count(std::integral auto n) { return number(std::to_string(n)); }
Cell fixed(double value, int decimals) {
  char text[320];  // room for the largest double at 4 decimals
  std::snprintf(text, sizeof(text), "%.*f", decimals, value);
  return number(text);
}
Cell flag(bool on) { return {on ? "1" : "0", on ? "true" : "false"}; }
Cell verdict(const obs::SloReport& slo) {
  return slo.evaluated ? flag(slo.pass) : Cell{"-1", "null"};
}
std::string quoted(std::string_view s) {
  std::string json = "\"";
  obs::append_escaped(json, s);
  return json + '"';
}
Cell text(std::string_view s) { return {std::string(s), quoted(s)}; }

// Pre-rendered JSON, which only the JSON export carries.
Cell ttr_windows(const std::vector<double>& ttr_ms) {
  std::string json = "[";
  for (std::size_t w = 0; w < ttr_ms.size(); ++w) {
    if (w > 0) json += ", ";
    json += fixed(ttr_ms[w], 1).json;
  }
  return {"", json + "]"};
}

Cell mem_peak_bytes(const obs::MemSummary& mem) {
  if (!mem.enabled) return {};
  std::string json = "{";
  for (std::size_t c = 0; c < obs::kMemCategoryCount; ++c) {
    if (c > 0) json += ", ";
    json += quoted(obs::to_string(static_cast<obs::MemCategory>(c))) + ": " +
            std::to_string(mem.peak[c]);
  }
  return {"", json + "}"};
}

// What the columns read of one run: the record, its results (res) and their
// metrics (m), availability (a) and kernel stats (k). The percentiles sort
// the samples and the mean's last bits depend on their order, so the RTT
// statistics are taken once, in this order, before any column reads them.
struct Row {
  const RunRecord& run;
  bool timing;
  const Results& res = run.results;
  const Metrics& m = res.metrics;
  const Availability& a = res.availability;
  const sim::KernelStats& k = res.kernel;
  double p100 = m.rtt_percentile_ms(100);
  double p99 = m.rtt_percentile_ms(99);
  double p95 = m.rtt_percentile_ms(95);
  double stddev = m.rtt_stddev_ms();
  double mean = m.rtt_mean_ms();
};

enum Formats { kBoth, kJsonOnly };

struct Column {
  const char* name;
  Formats formats;
  Cell (*cell)(const Row&);
};

constexpr Column kColumns[] = {
    {"scenario", kBoth, [](auto& r) { return text(r.run.scenario_id); }},
    {"seed", kBoth, [](auto& r) { return count(r.run.seed); }},
    {"sent", kBoth, [](auto& r) { return count(r.m.sent()); }},
    {"received", kBoth, [](auto& r) { return count(r.m.received()); }},
    {"loss_pct", kBoth,
     [](auto& r) { return fixed(r.m.loss_rate() * 100.0, 4); }},
    {"rtt_mean_ms", kBoth, [](auto& r) { return fixed(r.mean, 3); }},
    {"rtt_stddev_ms", kBoth, [](auto& r) { return fixed(r.stddev, 3); }},
    {"rtt_p95_ms", kBoth, [](auto& r) { return fixed(r.p95, 3); }},
    {"rtt_p99_ms", kBoth, [](auto& r) { return fixed(r.p99, 3); }},
    {"rtt_p100_ms", kBoth, [](auto& r) { return fixed(r.p100, 3); }},
    {"pt_mean_ms", kJsonOnly,
     [](auto& r) { return fixed(r.m.pt_ms().mean(), 3); }},
    {"cpu_idle_pct", kBoth,
     [](auto& r) { return fixed(r.res.servers.cpu_idle_pct, 1); }},
    {"memory_mib", kBoth,
     [](auto& r) { return count(r.res.servers.memory_bytes / units::MiB); }},
    {"events_forwarded", kBoth,
     [](auto& r) { return count(r.res.events_forwarded); }},
    {"wire_bytes", kBoth, [](auto& r) { return count(r.res.wire_bytes); }},
    {"refused", kBoth, [](auto& r) { return count(r.res.refused); }},
    {"completed", kBoth, [](auto& r) { return flag(r.res.completed); }},
    {"sim_events", kBoth, [](auto& r) { return count(r.k.events_executed); }},
    {"peak_queue_depth", kBoth,
     [](auto& r) { return count(r.k.peak_queue_depth); }},
    {"cb_heap_allocs", kBoth,
     [](auto& r) { return count(r.k.callback_heap_allocs); }},
    {"handle_allocs", kBoth,
     [](auto& r) { return count(r.k.handles_materialised); }},
    {"faults", kBoth, [](auto& r) { return count(r.a.fault_events); }},
    {"downtime_ms", kBoth, [](auto& r) { return fixed(r.a.downtime_ms, 1); }},
    {"ttr_ms", kBoth, [](auto& r) { return fixed(r.a.time_to_recover_ms, 1); }},
    {"lost_in_window", kBoth,
     [](auto& r) { return count(r.a.lost_in_window); }},
    {"lost_post_window", kBoth,
     [](auto& r) { return count(r.a.lost_post_window); }},
    {"late", kBoth, [](auto& r) { return count(r.a.delivered_late); }},
    {"reconnects", kBoth, [](auto& r) { return count(r.a.reconnects); }},
    {"resubscribes", kBoth, [](auto& r) { return count(r.a.resubscribes); }},
    {"reregistrations", kBoth,
     [](auto& r) { return count(r.a.reregistrations); }},
    {"ttr_windows_ms", kJsonOnly,
     [](auto& r) { return ttr_windows(r.a.ttr_windows_ms); }},
    {"slo_pass", kBoth, [](auto& r) { return verdict(r.res.slo); }},
    {"slo_worst_burn", kBoth,
     [](auto& r) { return fixed(r.res.slo.worst_burn, 3); }},
    {"slo_worst", kJsonOnly,
     [](auto& r) {
       const obs::SloReport& slo = r.res.slo;
       return slo.evaluated && !slo.pass ? text(slo.worst_violation())
                                         : Cell{};
     }},
    {"peak_model_bytes", kBoth,
     [](auto& r) { return count(r.res.mem.peak_total); }},
    {"system", kBoth, [](auto& r) { return text(r.run.system); }},
    {"loss_after_recovery_pct", kBoth,
     [](auto& r) { return fixed(r.res.loss_after_recovery_pct(), 4); }},
    {"backfill_msgs", kJsonOnly,
     [](auto& r) { return count(r.a.backfill_msgs); }},
    {"backfill_bytes", kBoth,
     [](auto& r) { return count(r.a.backfill_bytes); }},
    {"generators", kBoth, [](auto& r) { return count(r.res.generators); }},
    {"bytes_per_generator", kJsonOnly,
     [](auto& r) { return fixed(r.res.bytes_per_generator(), 1); }},
    {"mem_peak_bytes", kJsonOnly,
     [](auto& r) { return mem_peak_bytes(r.res.mem); }},
    {"wall_seconds", kJsonOnly,
     [](auto& r) { return r.timing ? fixed(r.run.wall_seconds, 3) : Cell{}; }},
    {"events_per_sec", kJsonOnly,
     [](auto& r) {
       return r.timing ? fixed(r.run.events_per_sec(), 0) : Cell{};
     }},
};

}  // namespace

std::string Campaign::csv() const {
  std::string out;
  for (const Column& column : kColumns) {
    if (column.formats == kBoth) out += std::string(column.name) + ',';
  }
  out.back() = '\n';
  for (const auto& run : runs_) {
    const Row row{run, /*timing=*/false};
    for (const Column& column : kColumns) {
      if (column.formats == kBoth) out += column.cell(row).csv + ',';
    }
    out.back() = '\n';
  }
  return out;
}

std::string Campaign::json(bool include_timing) const {
  std::string out = "{\"schema_version\": " +
                    std::to_string(kCampaignSchemaVersion) +
                    ", \"kind\": \"gridmon_campaign\", \"runs\": [\n";
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const Row row{runs_[i], include_timing};
    const char* separator = "  {";
    for (const Column& column : kColumns) {
      const Cell cell = column.cell(row);
      if (cell.json.empty()) continue;
      out += separator + quoted(column.name) + ": " + cell.json;
      separator = ", ";
    }
    out += i + 1 < runs_.size() ? "},\n" : "}\n";
  }
  out += "]}\n";
  return out;
}

CampaignRunner::CampaignRunner(CampaignOptions options)
    : options_(std::move(options)) {
  if (options_.seeds < 1) options_.seeds = 1;
}

bool CampaignRunner::add(ScenarioSpec spec) {
  if (!queued_.insert(spec.id).second) return false;
  scenarios_.push_back(std::move(spec));
  return true;
}

bool CampaignRunner::add(const ScenarioRegistry& registry,
                         std::string_view id) {
  const ScenarioSpec* spec = registry.find(id);
  if (spec == nullptr) return false;
  add(*spec);
  return true;
}

int CampaignRunner::add_matching(const ScenarioRegistry& registry,
                                 std::string_view prefix) {
  int added = 0;
  for (const ScenarioSpec* spec : registry.match(prefix)) {
    added += add(*spec) ? 1 : 0;
  }
  return added;
}

Campaign CampaignRunner::run() {
  const int seeds = options_.seeds;
  const int total = total_runs();
  std::vector<RunRecord> records(static_cast<std::size_t>(total));

  int jobs = options_.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 1;
  }
  if (jobs > total) jobs = total;

  const auto campaign_begin = std::chrono::steady_clock::now();
  // Runs are claimed from a shared counter but *stored* by index, so the
  // result order is a function of the queue alone, never of scheduling.
  std::atomic<int> next{0};
  std::mutex progress_mutex;
  int done = 0;
  // A run that throws stops the pool; the lowest-indexed failure is
  // rethrown after the join, so every worker count reports the same one.
  std::exception_ptr error;
  int error_index = total;
  auto worker = [&] {
    for (int i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
      const ScenarioSpec& spec =
          scenarios_[static_cast<std::size_t>(i / seeds)];
      const std::uint64_t seed =
          options_.first_seed + static_cast<std::uint64_t>(i % seeds);
      const auto begin = std::chrono::steady_clock::now();
      try {
        Results results = run_scenario(spec, options_.duration, seed,
                                       options_.obs);
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - begin;
        auto& slot = records[static_cast<std::size_t>(i)];
        slot = RunRecord{spec.id, seed, spec.system(), std::move(results),
                         elapsed.count()};
        if (options_.progress) {
          std::lock_guard lock(progress_mutex);
          options_.progress(++done, total, slot);
        }
      } catch (...) {
        std::lock_guard lock(progress_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        next = total;
      }
    }
  };

  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
  }
  if (error) std::rethrow_exception(error);

  const std::chrono::duration<double> campaign_elapsed =
      std::chrono::steady_clock::now() - campaign_begin;
  return Campaign(std::move(records), campaign_elapsed.count());
}

}  // namespace gridmon::core
