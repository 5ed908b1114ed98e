#include "cluster/jvm.hpp"

#include "cluster/costs.hpp"

namespace gridmon::cluster {

Jvm::Jvm(sim::Simulation& sim, Cpu& cpu, Heap& heap, util::Rng rng)
    : sim_(sim), cpu_(cpu), heap_(heap), rng_(rng) {}

void Jvm::start() {
  timer_ = sim::PeriodicTimer(sim_, sim_.now() + costs::kGcCheckPeriod,
                              costs::kGcCheckPeriod, [this] { check(); });
}

void Jvm::stop() { timer_.cancel(); }

void Jvm::check() {
  const double occupancy = heap_.occupancy();
  const double chance =
      costs::kGcChancePerCheckIdle + costs::kGcChanceOccupancyGain * occupancy;
  if (!rng_.chance(chance)) return;

  SimTime pause;
  if (occupancy >= costs::kGcFullThreshold && rng_.chance(0.25)) {
    pause = costs::kGcFullPause;
    ++full_;
  } else {
    // Minor collection: duration scales with live heap, with ±30 % jitter.
    const auto scaled = static_cast<SimTime>(
        static_cast<double>(costs::kGcMinorPausePerOccupancy) * occupancy);
    pause = costs::kGcMinorPauseBase + scaled;
    pause = static_cast<SimTime>(static_cast<double>(pause) *
                                 rng_.uniform(0.7, 1.3));
    ++minor_;
  }
  total_pause_ += pause;
  cpu_.stall(pause);
}

}  // namespace gridmon::cluster
