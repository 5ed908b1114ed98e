#include "core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

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

void append_row(std::string& out, const RunRecord& run, bool json,
                bool timing = false) {
  const auto& m = run.results.metrics;
  const auto& k = run.results.kernel;
  const auto& a = run.results.availability;
  // Loss that survived the recovery machinery: every row/message the fault
  // windows claimed and nothing (reconnect, resubscribe, backfill) won back.
  const double loss_after_recovery_pct =
      m.sent() > 0 ? 100.0 *
                         static_cast<double>(a.lost_in_window +
                                             a.lost_post_window) /
                         static_cast<double>(m.sent())
                   : 0.0;
  // Model bytes per monitored generator: the scale-sweep figure of merit.
  const std::int64_t generators = run.results.generators;
  const double bytes_per_generator =
      generators > 0 ? static_cast<double>(run.results.mem.peak_total) /
                           static_cast<double>(generators)
                     : 0.0;
  // The percentiles sort the samples and the mean's last bits depend on
  // their order, so the statistics are computed in one fixed order, not
  // in whatever order the compiler evaluates snprintf's arguments.
  const double p100 = m.rtt_percentile_ms(100);
  const double p99 = m.rtt_percentile_ms(99);
  const double p95 = m.rtt_percentile_ms(95);
  const double stddev = m.rtt_stddev_ms();
  const double mean = m.rtt_mean_ms();
  char buffer[2048];
  if (json) {
    std::snprintf(
        buffer, sizeof(buffer),
        "  {\"scenario\": \"%s\", \"seed\": %llu, \"sent\": %llu, "
        "\"received\": %llu, \"loss_pct\": %.4f, \"rtt_mean_ms\": %.3f, "
        "\"rtt_stddev_ms\": %.3f, \"rtt_p95_ms\": %.3f, \"rtt_p99_ms\": "
        "%.3f, \"rtt_p100_ms\": %.3f, \"pt_mean_ms\": %.3f, "
        "\"cpu_idle_pct\": %.1f, "
        "\"memory_mib\": %lld, \"events_forwarded\": %llu, \"wire_bytes\": "
        "%lld, \"refused\": %llu, \"completed\": %s, \"sim_events\": %llu, "
        "\"peak_queue_depth\": %llu, \"cb_heap_allocs\": %llu, "
        "\"handle_allocs\": %llu, \"faults\": %llu, \"downtime_ms\": %.1f, "
        "\"ttr_ms\": %.1f, \"lost_in_window\": %llu, \"lost_post_window\": "
        "%llu, \"late\": %llu, \"reconnects\": %llu, \"resubscribes\": %llu, "
        "\"reregistrations\": %llu",
        run.scenario_id.c_str(), static_cast<unsigned long long>(run.seed),
        static_cast<unsigned long long>(m.sent()),
        static_cast<unsigned long long>(m.received()), m.loss_rate() * 100.0,
        mean, stddev, p95, p99, p100, m.pt_ms().mean(),
        run.results.servers.cpu_idle_pct,
        static_cast<long long>(run.results.servers.memory_bytes / units::MiB),
        static_cast<unsigned long long>(run.results.events_forwarded),
        static_cast<long long>(run.results.wire_bytes),
        static_cast<unsigned long long>(run.results.refused),
        run.results.completed ? "true" : "false",
        static_cast<unsigned long long>(k.events_executed),
        static_cast<unsigned long long>(k.peak_queue_depth),
        static_cast<unsigned long long>(k.callback_heap_allocs),
        static_cast<unsigned long long>(k.handles_materialised),
        static_cast<unsigned long long>(a.fault_events), a.downtime_ms,
        a.time_to_recover_ms,
        static_cast<unsigned long long>(a.lost_in_window),
        static_cast<unsigned long long>(a.lost_post_window),
        static_cast<unsigned long long>(a.delivered_late),
        static_cast<unsigned long long>(a.reconnects),
        static_cast<unsigned long long>(a.resubscribes),
        static_cast<unsigned long long>(a.reregistrations));
    out += buffer;
    // Per-window TTR (satellite of the availability metrics) lives in the
    // JSON export only: the CSV column set is pinned by golden-hash tests.
    out += ", \"ttr_windows_ms\": [";
    for (std::size_t w = 0; w < a.ttr_windows_ms.size(); ++w) {
      if (w > 0) out += ", ";
      std::snprintf(buffer, sizeof(buffer), "%.1f", a.ttr_windows_ms[w]);
      out += buffer;
    }
    out += "]";
    const auto& slo = run.results.slo;
    std::snprintf(buffer, sizeof(buffer),
                  ", \"slo_pass\": %s, \"slo_worst_burn\": %.3f",
                  !slo.evaluated ? "null" : (slo.pass ? "true" : "false"),
                  slo.worst_burn);
    out += buffer;
    if (slo.evaluated && !slo.pass) {
      out += ", \"slo_worst\": \"" + slo.worst_violation() + "\"";
    }
    const auto& mem = run.results.mem;
    std::snprintf(buffer, sizeof(buffer), ", \"peak_model_bytes\": %lld",
                  static_cast<long long>(mem.peak_total));
    out += buffer;
    out += ", \"system\": \"" + run.system + "\"";
    std::snprintf(buffer, sizeof(buffer),
                  ", \"loss_after_recovery_pct\": %.4f, \"backfill_msgs\": "
                  "%llu, \"backfill_bytes\": %lld",
                  loss_after_recovery_pct,
                  static_cast<unsigned long long>(a.backfill_msgs),
                  static_cast<long long>(a.backfill_bytes));
    out += buffer;
    std::snprintf(buffer, sizeof(buffer),
                  ", \"generators\": %lld, \"bytes_per_generator\": %.1f",
                  static_cast<long long>(generators), bytes_per_generator);
    out += buffer;
    if (mem.enabled) {
      out += ", \"mem_peak_bytes\": {";
      for (std::size_t c = 0; c < obs::kMemCategoryCount; ++c) {
        if (c > 0) out += ", ";
        std::snprintf(buffer, sizeof(buffer), "\"%s\": %lld",
                      std::string(obs::to_string(
                                      static_cast<obs::MemCategory>(c)))
                          .c_str(),
                      static_cast<long long>(mem.peak[c]));
        out += buffer;
      }
      out += "}";
    }
    if (timing) {
      std::snprintf(buffer, sizeof(buffer),
                    ", \"wall_seconds\": %.3f, \"events_per_sec\": %.0f",
                    run.wall_seconds, run.events_per_sec());
      out += buffer;
    }
    out += "}";
    return;
  } else {
    std::snprintf(
        buffer, sizeof(buffer),
        "%s,%llu,%llu,%llu,%.4f,%.3f,%.3f,%.3f,%.3f,%.3f,%.1f,%lld,%llu,"
        "%lld,%llu,%d,%llu,%llu,%llu,%llu,%llu,%.1f,%.1f,%llu,%llu,%llu,"
        "%llu,%llu,%llu",
        run.scenario_id.c_str(), static_cast<unsigned long long>(run.seed),
        static_cast<unsigned long long>(m.sent()),
        static_cast<unsigned long long>(m.received()), m.loss_rate() * 100.0,
        mean, stddev, p95, p99, p100, run.results.servers.cpu_idle_pct,
        static_cast<long long>(run.results.servers.memory_bytes / units::MiB),
        static_cast<unsigned long long>(run.results.events_forwarded),
        static_cast<long long>(run.results.wire_bytes),
        static_cast<unsigned long long>(run.results.refused),
        run.results.completed ? 1 : 0,
        static_cast<unsigned long long>(k.events_executed),
        static_cast<unsigned long long>(k.peak_queue_depth),
        static_cast<unsigned long long>(k.callback_heap_allocs),
        static_cast<unsigned long long>(k.handles_materialised),
        static_cast<unsigned long long>(a.fault_events), a.downtime_ms,
        a.time_to_recover_ms,
        static_cast<unsigned long long>(a.lost_in_window),
        static_cast<unsigned long long>(a.lost_post_window),
        static_cast<unsigned long long>(a.delivered_late),
        static_cast<unsigned long long>(a.reconnects),
        static_cast<unsigned long long>(a.resubscribes),
        static_cast<unsigned long long>(a.reregistrations));
    out += buffer;
    // SLO verdict (-1 = no spec, 0 = fail, 1 = pass) and the model's
    // peak footprint ride at the end so older column prefixes stay put.
    const auto& slo = run.results.slo;
    std::snprintf(buffer, sizeof(buffer), ",%d,%.3f,%lld",
                  !slo.evaluated ? -1 : (slo.pass ? 1 : 0), slo.worst_burn,
                  static_cast<long long>(run.results.mem.peak_total));
    out += buffer;
    // Backend name (schema v2); appended last like every column addition.
    out += ',';
    out += run.system;
    // Replication columns (reconnect-backfill PR), appended after `system`
    // so every older column prefix stays put.
    std::snprintf(buffer, sizeof(buffer), ",%.4f,%lld",
                  loss_after_recovery_pct,
                  static_cast<long long>(a.backfill_bytes));
    out += buffer;
    // Fleet size (hierarchical-tier PR): flat runs report their generator
    // count too, so bytes-per-generator is derivable from any row.
    std::snprintf(buffer, sizeof(buffer), ",%lld",
                  static_cast<long long>(generators));
    out += buffer;
  }
}

}  // namespace

std::string Campaign::csv() const {
  std::string out =
      "scenario,seed,sent,received,loss_pct,rtt_mean_ms,rtt_stddev_ms,"
      "rtt_p95_ms,rtt_p99_ms,rtt_p100_ms,cpu_idle_pct,memory_mib,"
      "events_forwarded,wire_bytes,refused,completed,sim_events,"
      "peak_queue_depth,cb_heap_allocs,handle_allocs,faults,downtime_ms,"
      "ttr_ms,lost_in_window,lost_post_window,late,reconnects,resubscribes,"
      "reregistrations,slo_pass,slo_worst_burn,peak_model_bytes,system,"
      "loss_after_recovery_pct,backfill_bytes,generators\n";
  for (const auto& run : runs_) {
    append_row(out, run, /*json=*/false);
    out += '\n';
  }
  return out;
}

std::string Campaign::json(bool include_timing) const {
  char header[96];
  std::snprintf(header, sizeof(header),
                "{\"schema_version\": %d, \"kind\": \"gridmon_campaign\", "
                "\"runs\": [\n",
                kCampaignSchemaVersion);
  std::string out = header;
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    append_row(out, runs_[i], /*json=*/true, include_timing);
    out += i + 1 < runs_.size() ? ",\n" : "\n";
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
