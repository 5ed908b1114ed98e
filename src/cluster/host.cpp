#include "cluster/host.hpp"

#include "cluster/costs.hpp"

namespace gridmon::cluster {

Host::Host(sim::Simulation& sim, net::NodeId id, std::string name,
           HostConfig config)
    : sim_(sim),
      id_(id),
      name_(std::move(name)),
      cpu_(sim),
      heap_(config.memory_budget > 0 ? config.memory_budget
                                     : costs::kJvmHeapBudget) {
  // Charge the resident baseline (JVM, classes, middleware singletons).
  (void)heap_.allocate(costs::kJvmBaselineBytes);
  jvm_ = std::make_unique<Jvm>(sim_, cpu_, heap_,
                               sim_.rng_stream("jvm." + name_));
  if (config.enable_gc) jvm_->start();
}

bool Host::spawn_thread(std::int64_t extra_bytes) {
  const std::int64_t bytes = costs::kThreadStackBytes + extra_bytes;
  if (!heap_.allocate(bytes)) return false;
  ++threads_;
  return true;
}

void Host::exit_thread(std::int64_t extra_bytes) {
  heap_.release(costs::kThreadStackBytes + extra_bytes);
  if (threads_ > 0) --threads_;
}

}  // namespace gridmon::cluster
