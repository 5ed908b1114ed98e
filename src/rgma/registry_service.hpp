// R-GMA Registry + Schema service.
//
// The registry is the virtual database's directory: producers and consumers
// register here, and the *mediator* inside it matches consumer queries to
// producers and notifies both sides so streaming can begin. Mediation takes
// time — the paper found producers must wait 5–10 s after creation before
// publishing or data is lost, and our mediation latency model (base + per-
// registered-producer term) reproduces that warm-up requirement.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/http.hpp"
#include "rgma/servlet.hpp"
#include "rgma/schema.hpp"
#include "rgma/wire.hpp"
#include "sim/simulation.hpp"

namespace gridmon::rgma {

class RegistryService {
 public:
  RegistryService(cluster::Host& host, net::StreamTransport& streams,
                  net::Endpoint endpoint);

  /// Serve over HTTPS (TLS costs on every request).
  void set_secure(bool secure) { servlet_.set_secure(secure); }

  /// Enable soft-state expiry: registrations not renewed within `ttl`
  /// disappear from lookups and mediation (0 disables, the default).
  void set_registration_ttl(SimTime ttl);

  /// Fault injection: the registry's servlet container dies. All soft state
  /// (producer and consumer registrations) is wiped — the directory is
  /// rebuilt purely from renewals and re-registrations, GMA's soft-state
  /// design point. Requests meanwhile fail with 503.
  void crash();
  void restart() { servlet_.restart(); }
  [[nodiscard]] bool down() const { return servlet_.down(); }
  /// Fault injection: half-open container. The listener still accepts
  /// connections and requests consume servlet time, but no response is
  /// ever written — clients hang until their own request timeout fires
  /// (a hung JVM / wedged servlet pool, nastier than a clean crash).
  void set_half_open(bool half_open) { half_open_ = half_open; }

  /// Deployment-time schema bootstrap (tables are normally created via the
  /// Schema servlet; experiments install them before the run starts).
  void add_table(const TableDef& table) { schema_.emplace(table.name(), table); }

  [[nodiscard]] net::Endpoint endpoint() const {
    return servlet_.endpoint();
  }
  [[nodiscard]] int producer_count() const { return static_cast<int>(producers_.size()); }

 private:
  struct ProducerReg {
    int id;
    std::string table;
    net::Endpoint service;
    SimTime last_renewed = 0;
  };
  struct ConsumerReg {
    int id;
    std::string table;
    std::string predicate_text;
    net::Endpoint service;
  };

  // Servlet routes, one per request body; a registration the registry
  // refuses throws, which the container answers 400.
  void handle_lookup(const LookupProducersRequest& req,
                     ServletHost::Responder& respond);
  void handle_register_producer(const RegisterProducerRequest& req);
  void handle_register_consumer(const RegisterConsumerRequest& req);
  void handle_renewals(const RenewRegistrationsRequest& req);
  /// The half-open drop, offered every request before dispatch.
  bool drop_if_half_open();
  void expire_stale();

  /// Mediate one (producer, consumer) pair: after the mediation latency,
  /// notify the producer service to stream to the consumer service and the
  /// consumer service that its plan grew.
  void mediate(const ProducerReg& producer, const ConsumerReg& consumer);

  [[nodiscard]] SimTime mediation_latency() const;

  ServletHost servlet_;

  std::map<std::string, TableDef> schema_;
  std::vector<ProducerReg> producers_;
  std::vector<ConsumerReg> consumers_;
  SimTime registration_ttl_ = 0;
  sim::PeriodicTimer expiry_timer_;
  std::uint64_t expired_count_ = 0;
  bool half_open_ = false;
  std::uint64_t reregistrations_ = 0;

 public:
  [[nodiscard]] std::uint64_t expired_registrations() const {
    return expired_count_;
  }
  /// Producers re-added through the renewal path after the registry lost
  /// them (restart or expiry) — each re-mediates against known consumers.
  [[nodiscard]] std::uint64_t reregistrations() const {
    return reregistrations_;
  }
};

}  // namespace gridmon::rgma
