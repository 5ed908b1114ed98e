// Parallel campaign runner.
//
// The paper's campaign is ~40 independent DES runs (scaling points x seeds
// x systems). Each run is single-threaded and bit-identical for a given
// (scenario, duration, seed); the runner fans the runs out over a worker
// pool and aggregates Results in a deterministic order (scenarios in the
// order they were added, seeds ascending within a scenario) regardless of
// the order workers finish them — so `--jobs 1` and `--jobs N` campaigns
// produce byte-identical result rows.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/registry.hpp"

namespace gridmon::core {

/// Version of the campaign JSON document layout. Bump when a field is
/// renamed/removed or its meaning changes (additions are compatible);
/// `gridmon_cli diff` refuses to compare documents with mismatched
/// versions.
///   v2: every run carries its backend name (`system` CSV column / JSON
///       key) so three-backend campaigns can be sliced without parsing
///       scenario ids.
inline constexpr int kCampaignSchemaVersion = 2;

/// One completed (scenario, seed) run.
struct RunRecord {
  std::string scenario_id;
  std::uint64_t seed = 0;
  /// Backend name from ScenarioSpec::system() ("narada", "rgma", "mqtt").
  std::string system;
  Results results;
  /// Host wall-clock seconds for this run. Excluded from csv()/json(): it
  /// is the only nondeterministic field.
  double wall_seconds = 0;

  /// Kernel throughput: simulator events executed per host wall-clock
  /// second. Derived from wall_seconds, so (like it) excluded from the
  /// csv()/json() exports; the CLI prints it instead.
  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0
               ? static_cast<double>(results.kernel.events_executed) /
                     wall_seconds
               : 0.0;
  }
};

struct CampaignOptions {
  /// Worker threads; <= 0 means one per hardware thread.
  int jobs = 1;
  /// Seeds per scenario (first_seed, first_seed+1, ...). The paper ran
  /// every test twice.
  int seeds = 2;
  std::uint64_t first_seed = 1;
  /// Virtual duration applied to every run (overrides the spec's config;
  /// a spec's fixed window overrides this).
  SimTime duration = units::minutes(30);
  /// Observability options applied to every run when enabled (off by
  /// default). See obs/recorder.hpp.
  obs::Options obs;
  /// Optional progress sink, invoked after every completed run. Called
  /// from worker threads but serialised by the runner, so the callback
  /// itself needs no locking.
  std::function<void(int done, int total, const RunRecord&)> progress;
};

/// Ordered results of a completed campaign.
class Campaign {
 public:
  Campaign(std::vector<RunRecord> runs, double wall_seconds)
      : runs_(std::move(runs)), wall_seconds_(wall_seconds) {}

  /// Every run, ordered by (scenario insertion order, seed) — independent
  /// of completion order.
  [[nodiscard]] const std::vector<RunRecord>& runs() const { return runs_; }

  /// The records of one scenario, seeds ascending.
  [[nodiscard]] std::vector<const RunRecord*> records(
      std::string_view scenario_id) const;

  /// All seeds of one scenario merged the way the paper aggregates its two
  /// runs: pool every RTT sample, average the server resources.
  [[nodiscard]] Results pooled(std::string_view scenario_id) const;

  /// Total harness wall-clock for the whole campaign.
  [[nodiscard]] double wall_seconds() const { return wall_seconds_; }

  /// Machine-readable exports. One row/object per run; every field is a
  /// deterministic function of (scenario, duration, seed). The JSON export
  /// is a schema-versioned document (`{"schema_version": N, "kind":
  /// "gridmon_campaign", "runs": [...]}`) so `gridmon_cli diff` can refuse
  /// incompatible baselines. `include_timing` adds the nondeterministic
  /// wall-clock fields (per-run wall_seconds/events_per_sec) for human
  /// snapshots; determinism tests compare the default timing-free form.
  [[nodiscard]] std::string csv() const;
  [[nodiscard]] std::string json(bool include_timing = false) const;

 private:
  std::vector<RunRecord> runs_;
  double wall_seconds_ = 0;
};

/// Fans (scenario x seed) runs over a worker pool.
class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options = {});

  /// Queue a scenario (by value; later registry mutations cannot race).
  /// Each id runs once: re-adding a queued id is a no-op that keeps its
  /// first position and returns false.
  bool add(ScenarioSpec spec);
  /// Queue a registry scenario by id; returns false if the id is unknown.
  bool add(const ScenarioRegistry& registry, std::string_view id);
  /// Queue every registry scenario matching an id prefix; returns how many
  /// were newly queued.
  int add_matching(const ScenarioRegistry& registry, std::string_view prefix);

  [[nodiscard]] const std::vector<ScenarioSpec>& scenarios() const {
    return scenarios_;
  }
  [[nodiscard]] int total_runs() const {
    return static_cast<int>(scenarios_.size()) * options_.seeds;
  }

  /// Run everything. Blocks until the campaign completes.
  [[nodiscard]] Campaign run();

 private:
  CampaignOptions options_;
  std::vector<ScenarioSpec> scenarios_;
  std::unordered_set<std::string> queued_;
};

}  // namespace gridmon::core
