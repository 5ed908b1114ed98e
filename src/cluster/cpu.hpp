// Single-core CPU model (the testbed's Pentium III 866 MHz).
//
// Work is expressed as a CPU-time demand and executed FIFO: a job entering
// at `now` starts when the core frees up and completes `demand` later. This
// produces queueing delay under load — the dominant latency mechanism in the
// paper's scaling experiments. Stalls (JVM garbage-collection pauses) occupy
// the core like jobs do.
//
// Busy time is accumulated so a vmstat-style sampler can report CPU idle
// percentages over an interval.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/simulation.hpp"
#include "util/units.hpp"

namespace gridmon::cluster {

class Cpu {
 public:
  /// Demands are CPU time on the reference PIII 866 MHz core.
  explicit Cpu(sim::Simulation& sim) : sim_(sim) {}

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;
  Cpu(Cpu&&) = default;

  /// Enqueue `demand` of CPU time; `done` fires at completion. Returns the
  /// completion time. Small completion captures run allocation-free (the
  /// callback lives inline in the kernel's event node).
  SimTime execute(SimTime demand, sim::EventFn done);

  /// Enqueue work with no completion callback (fire-and-forget cost).
  SimTime charge(SimTime demand) { return execute(demand, {}); }

  /// Occupy the core for `duration` (GC pause, swap stall).
  void stall(SimTime duration) { execute(duration, {}); }

  /// Time already committed ahead of a job entering now.
  [[nodiscard]] SimTime backlog() const {
    const SimTime now = sim_.now();
    return free_at_ > now ? free_at_ - now : 0;
  }

  /// Total CPU time consumed since construction.
  [[nodiscard]] SimTime busy_time() const { return busy_; }

 private:
  sim::Simulation& sim_;
  SimTime free_at_ = 0;
  SimTime busy_ = 0;
};

}  // namespace gridmon::cluster
