#include "cluster/hydra.hpp"

#include <sstream>

namespace gridmon::cluster {

Hydra::Hydra(HydraConfig config) : sim_(config.seed) {
  config.lan.node_count = config.node_count;
  lan_ = std::make_unique<net::Lan>(sim_, config.lan);
  streams_ = std::make_unique<net::StreamTransport>(*lan_);
  hosts_.reserve(static_cast<std::size_t>(config.node_count));
  for (int i = 0; i < config.node_count; ++i) {
    hosts_.push_back(std::make_unique<Host>(
        sim_, i, "hydra" + std::to_string(i + 1), config.host));
  }
}

std::string Hydra::describe() const {
  std::ostringstream out;
  out << "Hydra cluster model: " << hosts_.size()
      << " nodes (PentiumIII 866MHz class, "
      << (hosts_.empty() ? 0
                         : hosts_[0]->heap().capacity() / units::MiB)
      << " MiB JVM budget each)\n"
      << "LAN: switched, " << net::kLineRateBps / 1e6
      << " Mbps per port, efficiency " << net::kLinkEfficiency << " (≈"
      << net::kLineRateBps * net::kLinkEfficiency / 8e6
      << " MB/s goodput), propagation " << units::to_micros(net::kPropagation)
      << " us\n"
      << "Software model: Sun HotSpot 1.4.2-style GC pauses, "
      << "thread-per-connection servers";
  return out.str();
}

}  // namespace gridmon::cluster
