// TopologySpec: a declarative description of a hierarchical monitoring
// tree — generator → edge aggregator → regional publisher → root.
//
// The paper's campaigns stop at 4000 flat connections because every
// generator holds its own middleware client. A hierarchical topology
// terminates generator links on edge aggregators (netdata's child → proxy
// → parent daisy-chaining), so only the regional tier talks to the backend
// and the generator tier can grow to 10^6. A TopologySpec is declarative
// and seedless, like a FaultPlan: the experiment harness expands it
// deterministically at setup, so a hier run stays a pure function of
// (scenario, duration, seed).
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace gridmon::hier {

/// How an aggregator folds the samples collected in one window.
enum class Reduce {
  kRaw,   ///< pass-through: forward every sample record (broker tree)
  kMean,  ///< one aggregate record per window: the model charges one
          ///< fixed-size record and computes no value
};

/// The link children of either tier use to reach their parent: a fixed
/// latency plus a deterministic per-child spread in [0, kLinkJitter]
/// (hashed from the child index, no RNG draws), so expansion stays
/// seedless.
inline constexpr SimTime kLinkLatency = units::milliseconds(2);
inline constexpr SimTime kLinkJitter = units::milliseconds(1);

/// Wire size of one raw sample record inside an edge frame.
inline constexpr std::int64_t kSampleBytes = 56;

/// One aggregation tier: how many children fan in per node, the reduction
/// policy and the batching window.
struct TierSpec {
  std::int64_t fan_in = 100;
  Reduce reduce = Reduce::kMean;
  SimTime window = units::seconds(10);
};

struct TopologySpec {
  std::int64_t generators = 10000;
  /// Every generator emits one sample per period, at a per-generator phase.
  SimTime sample_period = units::seconds(10);
  /// Per-sample Bernoulli loss on the generator→edge hop, the only lossy
  /// link the tree models.
  double edge_loss = 0.0;
  TierSpec edge;      ///< generator → edge aggregator
  TierSpec regional;  ///< edge → regional publisher (owns the backend client)

  /// Deterministic expansion of the tree shape. Validates the spec and
  /// throws std::invalid_argument on nonsense (zero fan-in, a negative
  /// window, an out-of-range loss probability, an edge fan-in whose
  /// phase slots overflow int64, ...).
  struct Expansion {
    std::int64_t generators = 0;
    std::int64_t edges = 0;
    std::int64_t regionals = 0;
    std::int64_t edge_fan_in = 0;
    std::int64_t regional_fan_in = 0;

    [[nodiscard]] std::int64_t edge_of(std::int64_t generator) const {
      return generator / edge_fan_in;
    }
    [[nodiscard]] std::int64_t regional_of(std::int64_t edge) const {
      return edge / regional_fan_in;
    }
    [[nodiscard]] std::int64_t generator_begin(std::int64_t edge) const {
      return edge * edge_fan_in;
    }
    [[nodiscard]] std::int64_t generator_end(std::int64_t edge) const {
      const std::int64_t end = (edge + 1) * edge_fan_in;
      return end < generators ? end : generators;
    }
    [[nodiscard]] std::int64_t edge_begin(std::int64_t regional) const {
      return regional * regional_fan_in;
    }
    [[nodiscard]] std::int64_t edge_end(std::int64_t regional) const {
      const std::int64_t end = (regional + 1) * regional_fan_in;
      return end < edges ? end : edges;
    }
    /// Generators in the subtree under one regional — the unit OOM-wall
    /// refusals are counted in (satellite: honest loss accounting).
    [[nodiscard]] std::int64_t generators_under(std::int64_t regional) const {
      const std::int64_t first = generator_begin(edge_begin(regional));
      const std::int64_t last = edge_end(regional) > edge_begin(regional)
                                    ? generator_end(edge_end(regional) - 1)
                                    : first;
      return last - first;
    }
  };
  [[nodiscard]] Expansion expand() const;
};

}  // namespace gridmon::hier
