#include "rgma/network.hpp"

namespace gridmon::rgma {

RgmaNetwork::RgmaNetwork(cluster::Hydra& hydra, RgmaNetworkConfig config)
    : hydra_(hydra), config_(std::move(config)) {
  const net::Endpoint registry_ep{config_.registry_host, config_.base_port};
  registry_ = std::make_unique<RegistryService>(
      hydra_.host(config_.registry_host), hydra_.streams(), registry_ep);

  // Port layout: base = registry, base+1.. = producer services,
  // base+100.. = consumer services. Distinct ports keep co-located
  // single-server deployments unambiguous.
  std::uint16_t port = static_cast<std::uint16_t>(config_.base_port + 1);
  for (int host : config_.producer_hosts) {
    producer_services_.push_back(std::make_unique<ProducerService>(
        hydra_.host(host), hydra_.streams(), net::Endpoint{host, port++},
        registry_ep));
  }
  port = static_cast<std::uint16_t>(config_.base_port + 100);
  for (int host : config_.consumer_hosts) {
    consumer_services_.push_back(std::make_unique<ConsumerService>(
        hydra_.host(host), hydra_.streams(), net::Endpoint{host, port++},
        registry_ep));
  }

  registry_->set_secure(config_.secure);
  for (auto& service : producer_services_) service->set_secure(config_.secure);
  for (auto& service : consumer_services_) {
    service->set_secure(config_.secure);
    service->set_legacy_stream_api(config_.legacy_stream_api);
  }
}

void RgmaNetwork::create_table(const TableDef& table) {
  registry_->add_table(table);
  for (auto& service : producer_services_) service->add_table(table);
  for (auto& service : consumer_services_) service->add_table(table);
}

net::Endpoint RgmaNetwork::assign_producer_service() {
  const int pick = next_producer_++ % producer_service_count();
  return producer_services_[static_cast<std::size_t>(pick)]->endpoint();
}

net::Endpoint RgmaNetwork::assign_consumer_service() {
  const int pick = next_consumer_++ % consumer_service_count();
  return consumer_services_[static_cast<std::size_t>(pick)]->endpoint();
}

ProducerServiceStats RgmaNetwork::total_producer_stats() const {
  ProducerServiceStats total;
  for (const auto& service : producer_services_) {
    const auto& s = service->stats();
    total.producers_refused += s.producers_refused;
    total.inserts_ok += s.inserts_ok;
    total.inserts_failed += s.inserts_failed;
    total.tuples_streamed += s.tuples_streamed;
    total.batches_sent += s.batches_sent;
  }
  return total;
}

ConsumerServiceStats RgmaNetwork::total_consumer_stats() const {
  ConsumerServiceStats total;
  for (const auto& service : consumer_services_) {
    const auto& s = service->stats();
    total.batches_received += s.batches_received;
    total.tuples_matched += s.tuples_matched;
    total.polls_served += s.polls_served;
  }
  return total;
}

}  // namespace gridmon::rgma
