#include "cluster/vmstat.hpp"

#include <algorithm>

namespace gridmon::cluster {

void VmstatSampler::start() {
  last_busy_ = host_.cpu().busy_time();
  auto& sim = host_.sim();
  timer_ = sim::PeriodicTimer(sim, sim.now() + kPeriod, kPeriod,
                              [this] { sample(); });
}

void VmstatSampler::stop() { timer_.cancel(); }

void VmstatSampler::sample() {
  const SimTime busy = host_.cpu().busy_time();
  const SimTime delta_busy = busy - last_busy_;
  last_busy_ = busy;
  const double idle =
      100.0 * (1.0 - std::clamp(static_cast<double>(delta_busy) /
                                    static_cast<double>(kPeriod),
                                0.0, 1.0));
  samples_.push_back(
      VmstatSample{host_.sim().now(), idle, host_.heap().used()});
}

double VmstatSampler::mean_cpu_idle() const {
  if (samples_.empty()) return 100.0;
  double sum = 0.0;
  for (const auto& s : samples_) sum += s.cpu_idle_pct;
  return sum / static_cast<double>(samples_.size());
}

std::int64_t VmstatSampler::memory_consumption() const {
  if (samples_.empty()) return 0;
  std::int64_t peak = samples_[0].memory_used;
  std::int64_t bottom = samples_[0].memory_used;
  for (const auto& s : samples_) {
    peak = std::max(peak, s.memory_used);
    bottom = std::min(bottom, s.memory_used);
  }
  return peak - bottom;
}

}  // namespace gridmon::cluster
