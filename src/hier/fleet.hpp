// Flyweight fleet state: the whole generator tier with no per-generator
// storage.
//
// A flat scenario holds one middleware client object (~KBs of model state
// plus simulated broker-side threads) per generator — the 2 GB heap caps
// that at ~4000. Here a generator holds no bytes at all: its phase is
// hashed from (seed, generator), and everything else about it (its sample
// times and per-sample loss draws) is *recomputed* from (seed, generator,
// sample index) on demand — the edge computes it when a window closes, and
// the root recomputes the identical draws when a late frame arrives, so no
// per-sample state is ever stored or shipped. Samples carry no reading:
// the tier's delays and traffic do not depend on one, so none is modelled.
//
// Phase layout: generator j of an edge with n generators samples at a
// hashed offset inside the j-th of n equal slots of the sample period. An
// edge's phases therefore rise with j, and the generators sampling in any
// part of the period form one contiguous range (phased_in), so a window
// visits only the generators that sample in it.
#pragma once

#include <cstdint>

#include "hier/topology.hpp"
#include "util/rng.hpp"

namespace gridmon::hier {

/// Bytes the model-memory profile (obs/memprof) charges for the whole
/// fleet. A fixed number rather than sizeof, so the memory figures do not
/// follow host struct layout; it is the x86-64 GCC 12 size of FleetState
/// when the figure was pinned.
constexpr std::int64_t kFleetStateBytes = 56;

class FleetState {
 public:
  /// `spec` must pass TopologySpec::expand(), except that an out-of-range
  /// loss probability is clamped. `seed` drives the phase and loss
  /// hashes (splitmix over seed and generator — no sequential RNG, so
  /// construction is O(1) with no draw-order coupling).
  FleetState(const TopologySpec& spec, std::uint64_t seed);

  [[nodiscard]] std::int64_t generators() const { return generators_; }

  /// Offset of generator `g`'s sample inside each sample period, in
  /// [0, sample_period): floor((j * period + offset) / n) for the j-th of
  /// the edge's n generators and a hashed offset in [0, period).
  [[nodiscard]] SimTime phase(std::int64_t g) const {
    const std::int64_t first = g / fan_in_ * fan_in_;
    return ((g - first) * sample_period_ + offset(g)) / edge_size(first);
  }

  /// The generators of edge `edge` whose phase lies in [from, to), for
  /// 0 <= from <= to <= sample_period. Phases rise with the generator
  /// index inside an edge, so they form one contiguous range.
  struct Range {
    std::int64_t begin = 0;
    std::int64_t end = 0;
  };
  [[nodiscard]] Range phased_in(std::int64_t edge, SimTime from,
                                SimTime to) const {
    const std::int64_t first = edge * fan_in_;
    return {first + first_phased_at(first, from),
            first + first_phased_at(first, to)};
  }

  /// Whether the generator→edge link loses any samples at all.
  [[nodiscard]] bool lossy() const { return loss_threshold_ != 0; }

  /// Whether sample `k` of generator `g` is lost on the generator→edge
  /// link. Deterministic Bernoulli(edge_loss) — the edge skips lost
  /// samples when counting and the root skips the same ones when
  /// accounting, so the two sides agree without any shared state.
  [[nodiscard]] bool sample_lost(std::int64_t g, std::int64_t k) const {
    if (!lossy()) return false;
    std::uint64_t s = loss_salt_ ^ (static_cast<std::uint64_t>(g) * 0x100000001B3ULL +
                                    static_cast<std::uint64_t>(k));
    return util::splitmix64(s) < loss_threshold_;
  }

  /// Model bytes the fleet holds (mirrored into mem_hier by the owner):
  /// one fixed charge for this object, whatever the generator count.
  [[nodiscard]] std::int64_t bytes() const { return kFleetStateBytes; }

 private:
  [[nodiscard]] static std::uint64_t hash(std::uint64_t salt,
                                          std::int64_t g) {
    std::uint64_t s =
        salt ^ (static_cast<std::uint64_t>(g) * 0x9E3779B97F4A7C15ULL);
    return util::splitmix64(s);
  }

  /// Where in its slot generator `g` samples: a hashed offset in
  /// [0, sample_period), scaled down by the edge size in phase().
  [[nodiscard]] std::int64_t offset(std::int64_t g) const {
    return static_cast<std::int64_t>(
        hash(phase_salt_, g) % static_cast<std::uint64_t>(sample_period_));
  }

  /// Generators in the edge whose first generator is `first`.
  [[nodiscard]] std::int64_t edge_size(std::int64_t first) const {
    return generators_ - first < fan_in_ ? generators_ - first : fan_in_;
  }

  /// The smallest index j in [0, n] of the edge starting at generator
  /// `first` whose phase is >= `at` (n when none is), for at in
  /// [0, sample_period].
  [[nodiscard]] std::int64_t first_phased_at(std::int64_t first,
                                             SimTime at) const;

  SimTime sample_period_;
  std::int64_t generators_;
  std::int64_t fan_in_;
  std::uint64_t phase_salt_;
  std::uint64_t loss_salt_;
  std::uint64_t loss_threshold_;  ///< loss probability scaled to 2^64
};

}  // namespace gridmon::hier
