// The Hydra testbed: 8 identical nodes on an isolated 100 Mbps switched LAN
// (Table I of the paper), assembled as one object owning the simulation
// kernel, the network fabric, and the hosts.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/host.hpp"
#include "net/lan.hpp"
#include "net/stream.hpp"
#include "sim/simulation.hpp"

namespace gridmon::cluster {

struct HydraConfig {
  int node_count = 8;
  std::uint64_t seed = 1;
  net::LanConfig lan{};  ///< node_count is overridden to match
  HostConfig host{};
};

class Hydra {
 public:
  explicit Hydra(HydraConfig config = {});

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] net::Lan& lan() { return *lan_; }
  [[nodiscard]] net::StreamTransport& streams() { return *streams_; }
  [[nodiscard]] Host& host(int i) { return *hosts_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] int node_count() const { return static_cast<int>(hosts_.size()); }

  /// Human-readable testbed description (Table I reproduction).
  [[nodiscard]] std::string describe() const;

 private:
  sim::Simulation sim_;
  std::unique_ptr<net::Lan> lan_;
  std::unique_ptr<net::StreamTransport> streams_;
  std::vector<std::unique_ptr<Host>> hosts_;
};

}  // namespace gridmon::cluster
