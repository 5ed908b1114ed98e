#include "narada/dbn.hpp"

#include <stdexcept>

namespace gridmon::narada {

Dbn::Dbn(cluster::Hydra& hydra, DbnConfig config)
    : hydra_(hydra),
      config_(std::move(config)),
      next_link_port_(static_cast<std::uint16_t>(config_.base_port + 1000)) {
  if (config_.broker_hosts.empty()) {
    throw std::invalid_argument("Dbn: needs at least one broker host");
  }
  for (std::size_t i = 0; i < config_.broker_hosts.size(); ++i) {
    BrokerConfig bc;
    bc.endpoint = net::Endpoint{config_.broker_hosts[i], config_.base_port};
    bc.transport = config_.transport;
    bc.broker_id = static_cast<int>(i);
    bc.subscription_aware_routing = config_.subscription_aware_routing;
    bc.replay = config_.replay;
    brokers_.push_back(std::make_unique<Broker>(
        hydra_.host(config_.broker_hosts[i]), hydra_.lan(), hydra_.streams(),
        bc));
  }
}

net::Endpoint Dbn::broker_endpoint(int i) const {
  return net::Endpoint{config_.broker_hosts[static_cast<std::size_t>(i)],
                       config_.base_port};
}

void Dbn::start() {
  for (auto& broker : brokers_) broker->start();

  // Establish one stream per pair of brokers; the initiator is the lower id.
  const int n = broker_count();
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const net::Endpoint from{config_.broker_hosts[static_cast<std::size_t>(a)],
                               next_link_port_++};
      Broker* broker_a = brokers_[static_cast<std::size_t>(a)].get();
      Broker* broker_b = brokers_[static_cast<std::size_t>(b)].get();
      hydra_.streams().connect(
          from, broker_endpoint(b),
          [broker_a, broker_b, a, b](net::StreamConnectionPtr conn) {
            if (!conn) return;
            // NOTE: the acceptor side also sees this connection through its
            // client-accept path; the peer registration below overrides the
            // side-1 handler with the peer-frame handler.
            broker_a->add_peer(b, conn, 0);
            broker_b->add_peer(a, conn, 1);
          });
    }
  }
}

net::Endpoint Dbn::assign_publisher_broker() {
  const int n = broker_count();
  if (n == 1) return broker_endpoint(0);
  const int pubs = (n + 1) / 2;
  const int pick = next_pub_++ % pubs;
  return broker_endpoint(pick);
}

net::Endpoint Dbn::assign_subscriber_broker() {
  const int n = broker_count();
  if (n == 1) return broker_endpoint(0);
  const int pubs = (n + 1) / 2;
  const int subs = n - pubs;
  const int pick = pubs + (next_sub_++ % subs);
  return broker_endpoint(pick);
}

BrokerStats Dbn::total_stats() const {
  BrokerStats total;
  for (const auto& broker : brokers_) {
    const BrokerStats& s = broker->stats();
    total.connections_accepted += s.connections_accepted;
    total.connections_refused += s.connections_refused;
    total.events_received += s.events_received;
    total.events_delivered += s.events_delivered;
    total.events_forwarded += s.events_forwarded;
    total.events_from_peers += s.events_from_peers;
    total.udp_acks_sent += s.udp_acks_sent;
    total.crashes += s.crashes;
    total.backfill_msgs += s.backfill_msgs;
    total.backfill_bytes += s.backfill_bytes;
  }
  return total;
}

void Dbn::request_peer_backfill() {
  for (auto& broker : brokers_) broker->request_peer_backfill();
}

}  // namespace gridmon::narada
