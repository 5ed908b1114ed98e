// JVM garbage-collection pause process.
//
// HotSpot 1.4.2 stop-the-world collections are the main source of the
// latency tail in the paper's percentile plots: the broker core freezes for
// a few to a few hundred milliseconds, and every message in flight during
// the pause inherits the delay. The model draws pauses stochastically with
// probability and duration increasing in heap occupancy, and injects them
// into the host CPU as stalls.
#pragma once

#include <cstdint>

#include "cluster/cpu.hpp"
#include "cluster/heap.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace gridmon::cluster {

/// The pause process reads its calibration from the cluster::costs kGc*
/// constants.
class Jvm {
 public:
  Jvm(sim::Simulation& sim, Cpu& cpu, Heap& heap, util::Rng rng);

  /// Begin the periodic GC process.
  void start();
  void stop();

  [[nodiscard]] std::uint64_t minor_collections() const { return minor_; }
  [[nodiscard]] std::uint64_t full_collections() const { return full_; }
  [[nodiscard]] SimTime total_pause_time() const { return total_pause_; }

 private:
  void check();

  sim::Simulation& sim_;
  Cpu& cpu_;
  Heap& heap_;
  util::Rng rng_;
  sim::PeriodicTimer timer_;
  std::uint64_t minor_ = 0;
  std::uint64_t full_ = 0;
  SimTime total_pause_ = 0;
};

}  // namespace gridmon::cluster
