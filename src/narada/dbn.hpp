// Distributed Broker Network assembler.
//
// The paper's DBN used four nodes: one acted as the unit controller and
// assigned addresses to the other three, brokers interconnected into a
// network, publishers attached to publishing brokers and subscribers to
// subscribing brokers. This class plays the unit-controller/Broker
// Discovery Node role: it instantiates one broker per given host, assigns
// endpoints, links every pair of brokers (a full mesh, so any broker is one
// hop from any other), and hands out broker addresses to connecting
// clients.
#pragma once

#include <memory>
#include <vector>

#include "cluster/hydra.hpp"
#include "narada/broker.hpp"

namespace gridmon::narada {

struct DbnConfig {
  std::vector<int> broker_hosts;  ///< Hydra host indices, one broker each
  TransportKind transport = TransportKind::kTcp;
  bool subscription_aware_routing = false;
  std::uint16_t base_port = 5000;
  /// Reconnect backfill replication (forwarded into each BrokerConfig).
  bool replay = false;
};

class Dbn {
 public:
  Dbn(cluster::Hydra& hydra, DbnConfig config);

  /// Start all brokers and initiate inter-broker connections (completes
  /// within simulated milliseconds).
  void start();

  [[nodiscard]] int broker_count() const { return static_cast<int>(brokers_.size()); }
  [[nodiscard]] Broker& broker(int i) { return *brokers_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] net::Endpoint broker_endpoint(int i) const;

  /// Broker Discovery Node service: hand out broker addresses round-robin
  /// within the given role partition. With N brokers, the first half serve
  /// publishers and the second half subscribers (the paper's publishing /
  /// subscribing broker split); with one broker everyone shares it.
  [[nodiscard]] net::Endpoint assign_publisher_broker();
  [[nodiscard]] net::Endpoint assign_subscriber_broker();

  /// Aggregate stats across brokers.
  [[nodiscard]] BrokerStats total_stats() const;

  /// Replication repair: every broker asks its peers to replay the retained
  /// frames it is missing. Call after a partition heals.
  void request_peer_backfill();

 private:
  cluster::Hydra& hydra_;
  DbnConfig config_;
  std::vector<std::unique_ptr<Broker>> brokers_;
  int next_pub_ = 0;
  int next_sub_ = 0;
  std::uint16_t next_link_port_;
};

}  // namespace gridmon::narada
