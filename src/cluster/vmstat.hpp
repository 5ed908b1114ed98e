// vmstat-style resource sampler.
//
// The paper recorded CPU idle and memory with Linux `vmstat` during each
// run, reporting mean CPU idle and memory consumption as peak-minus-bottom.
// This sampler reproduces those metric definitions against the simulated
// hosts.
#pragma once

#include <vector>

#include "cluster/host.hpp"
#include "sim/simulation.hpp"

namespace gridmon::cluster {

struct VmstatSample {
  SimTime at;
  double cpu_idle_pct;       ///< idle percentage over the last interval
  std::int64_t memory_used;  ///< bytes in use at sample time
};

class VmstatSampler {
 public:
  /// vmstat's sampling interval.
  static constexpr SimTime kPeriod = units::seconds(1);

  /// Samples `host` every kPeriod once start() is called.
  explicit VmstatSampler(Host& host) : host_(host) {}

  void start();
  void stop();

  [[nodiscard]] const std::vector<VmstatSample>& samples() const {
    return samples_;
  }

  /// Mean CPU idle percentage across samples (the paper's "CPU idle").
  [[nodiscard]] double mean_cpu_idle() const;

  /// Peak minus bottom memory across samples (the paper's "memory
  /// consumption"), in bytes.
  [[nodiscard]] std::int64_t memory_consumption() const;

 private:
  void sample();

  Host& host_;
  sim::PeriodicTimer timer_;
  SimTime last_busy_ = 0;
  std::vector<VmstatSample> samples_;
};

}  // namespace gridmon::cluster
