// A Hydra node: single PIII core, JVM heap budget, thread accounting.
#pragma once

#include <memory>
#include <string>

#include "cluster/cpu.hpp"
#include "cluster/heap.hpp"
#include "cluster/jvm.hpp"
#include "net/address.hpp"
#include "sim/simulation.hpp"

namespace gridmon::cluster {

struct HostConfig {
  std::int64_t memory_budget = 0;     ///< JVM process budget; 0 = use default
  bool enable_gc = true;
};

class Host {
 public:
  Host(sim::Simulation& sim, net::NodeId id, std::string name,
       HostConfig config = {});

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] net::NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Cpu& cpu() { return cpu_; }
  [[nodiscard]] Heap& heap() { return heap_; }
  [[nodiscard]] Jvm& jvm() { return *jvm_; }

  /// Spawn a connection-serving thread: charges a stack plus `extra_bytes`
  /// of per-connection state. Returns false on OOM (connection refused),
  /// which is how both middlewares' scaling walls manifest.
  [[nodiscard]] bool spawn_thread(std::int64_t extra_bytes = 0);
  void exit_thread(std::int64_t extra_bytes = 0);
  [[nodiscard]] int threads() const { return threads_; }

  /// Inflate a CPU demand by the current thread load (context switching):
  /// demand * (1 + per_thread * threads).
  [[nodiscard]] SimTime loaded(SimTime demand, double per_thread) const {
    return static_cast<SimTime>(static_cast<double>(demand) *
                                (1.0 + per_thread * threads_));
  }

 private:
  sim::Simulation& sim_;
  net::NodeId id_;
  std::string name_;
  Cpu cpu_;
  Heap heap_;
  std::unique_ptr<Jvm> jvm_;
  int threads_ = 0;
};

}  // namespace gridmon::cluster
