// Name-addressable scenario catalogue.
//
// A ScenarioSpec gives every experiment in the study a stable string id
// ("narada/single/2000", "rgma/no_warmup", ...) and a uniform run surface:
// benches, tests, examples and the CLI all address scenarios by id and run
// them through the campaign runner (core/campaign.hpp) instead of calling
// run_narada_experiment / run_rgma_experiment with hand-built configs.
//
// Duration and seed are *campaign* knobs: `run_scenario` always overrides
// the config's own duration/seed fields (the duration with the spec's
// fixed window when it has one), so a spec is a pure description and two
// runs of the same (id, duration, seed) triple are bit-identical.
#pragma once

#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/experiment.hpp"
#include "core/hier_experiment.hpp"

namespace gridmon::core {

using ScenarioConfig =
    std::variant<NaradaConfig, RgmaConfig, MqttConfig, HierConfig>;

/// One named experiment: the unit the registry stores and the campaign
/// runner schedules.
struct ScenarioSpec {
  std::string id;           ///< unique, path-like: "narada/single/2000"
  std::string description;  ///< one line, shown by `gridmon_cli list`
  ScenarioConfig config;
  /// Service-level objectives evaluated after every run (empty = none).
  /// run_scenario fills Results::slo from this; `gridmon_cli run --slo`
  /// turns the verdicts into an exit code.
  obs::SloSpec slo = {};
  /// Publishing window that replaces the campaign duration, for the run
  /// and its SLO evaluation (0 = the campaign duration). The fixed-rate
  /// ablation microbenchmarks publish for 120 s at any `--minutes`.
  SimTime fixed_window = 0;

  /// Backend name ("narada", "rgma", "mqtt", ...). Data-driven: read from
  /// the config type's kBackend constant (a hier config's regional
  /// backend), so adding a backend never touches a switch here. Used by
  /// `gridmon_cli list --system` and exported as the campaign `system`
  /// column.
  [[nodiscard]] const char* system() const;
};

/// Run one scenario at an explicit duration (or the spec's fixed window)
/// and seed. Single-threaded and deterministic; campaign parallelism is
/// strictly *across* calls. `obs` applies when enabled.
[[nodiscard]] Results run_scenario(const ScenarioSpec& spec, SimTime duration,
                                   std::uint64_t seed,
                                   const obs::Options& obs = {});

/// An ordered, id-indexed set of scenario specs. Insertion-ordered listing
/// (so `gridmon_cli list` groups naturally); ids must be unique.
class ScenarioRegistry {
 public:
  /// Add a spec; throws std::invalid_argument on a duplicate id.
  void add(ScenarioSpec spec);

  [[nodiscard]] const ScenarioSpec* find(std::string_view id) const;
  /// All specs whose id starts with `prefix` (in registration order).
  /// An exact id is its own prefix, so match("rgma/no_warmup") works too.
  [[nodiscard]] std::vector<const ScenarioSpec*> match(
      std::string_view prefix) const;
  [[nodiscard]] const std::vector<ScenarioSpec>& all() const { return specs_; }
  [[nodiscard]] std::size_t size() const { return specs_.size(); }

 private:
  std::vector<ScenarioSpec> specs_;
};

/// The process-wide catalogue: every figure, table and ablation in
/// DESIGN.md §4, keyed by the id families documented there. Built once on
/// first use and immutable afterwards, so campaign workers may read it
/// concurrently.
const ScenarioRegistry& builtin_registry();

}  // namespace gridmon::core
