// Name-addressable scenario catalogue.
//
// A ScenarioSpec gives every experiment in the study a stable string id
// ("narada/single/2000", "rgma/no_warmup", ...) and a uniform run surface:
// benches, tests, examples and the CLI all address scenarios by id and run
// them through the campaign runner (core/campaign.hpp) instead of calling
// run_narada_experiment / run_rgma_experiment with hand-built configs.
//
// Duration and seed are *campaign* knobs: `run_scenario` always overrides
// the config's own duration/seed fields, so a spec is a pure description
// and two runs of the same (id, duration, seed) triple are bit-identical.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/experiment.hpp"
#include "core/hier_experiment.hpp"

namespace gridmon::core {

/// Handed to a custom scenario body: the per-run knobs the campaign owns
/// (bespoke topologies read `duration` and `seed`).
using RunContext = RunConfig;

/// A scenario whose topology is not a plain Narada/R-GMA experiment (the
/// aggregation and Web-Services ablations build their own client graphs).
/// The body must be a pure function of the RunContext — it runs on campaign
/// worker threads.
struct CustomScenario {
  std::function<Results(const RunContext&)> run;
  /// Backend name for display/filtering. Bespoke topologies set this to
  /// the middleware they are built on ("narada", ...); plain "custom"
  /// otherwise.
  std::string backend = "custom";
};

using ScenarioConfig = std::variant<NaradaConfig, RgmaConfig, MqttConfig,
                                    HierConfig, CustomScenario>;

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

  /// Backend name ("narada", "rgma", "mqtt", ...). Data-driven: read from
  /// the config type's kBackend constant (or CustomScenario::backend), so
  /// adding a backend never touches a switch here. Used by `gridmon_cli
  /// list --system` and exported as the campaign `system` column.
  [[nodiscard]] const char* system() const;
};

/// Run one scenario at an explicit duration and seed. Single-threaded and
/// deterministic; campaign parallelism is strictly *across* calls. `obs`
/// applies to every harness config when enabled (custom scenarios ignore it).
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
