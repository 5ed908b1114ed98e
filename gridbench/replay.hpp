// Layer replays for the traced run.
//
// Each replay calls one src/ layer's public functions with the workload's
// own inputs (its event count, message count and size, topic stream,
// consumer predicates, subscriber selectors, fleet shape), in the order the
// harness uses them, which is simulated-time order, under a host-time span.
// The program itself carries no host-time instrumentation, so this is how
// the benchmark attributes host time to layers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "spans.hpp"

namespace gridbench {

/// One finished run of the workload and the spec it ran.
struct RunInput {
  const gridmon::core::ScenarioSpec* spec = nullptr;
  const gridmon::core::RunRecord* record = nullptr;
};

struct ReplayResult {
  /// Per-layer metric name -> value (0 where the workload never used the
  /// layer).
  std::map<std::string, double> metrics;
  /// Sum of the replay spans' self times.
  double self_seconds = 0;
  /// A replay that did not reproduce the run's own counts.
  std::vector<std::string> failures;
};

/// Run every layer replay as children of span `parent`.
[[nodiscard]] ReplayResult replay_layers(SpanLog& log, int parent,
                                         const std::vector<RunInput>& runs,
                                         gridmon::SimTime duration);

}  // namespace gridbench
