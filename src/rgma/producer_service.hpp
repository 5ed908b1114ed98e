// Primary Producer service.
//
// Hosts the producer side of the virtual database on one node: it owns one
// TupleStore per declared producer, parses incoming SQL INSERT statements
// (real parsing, charged to the host CPU), applies retention, and streams
// newly inserted tuples to attached consumer services on a periodic cycle —
// with producer-side predicate push-down, R-GMA's content-based filtering.
//
// Resource semantics: each declared producer costs a Tomcat worker thread
// plus servlet/JDBC state (~1.3 MiB); allocation failure refuses the
// producer, which is the paper's single-server wall below 800 connections.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "net/http.hpp"
#include "rgma/servlet.hpp"
#include "rgma/sql_compile.hpp"
#include "rgma/storage.hpp"
#include "rgma/wire.hpp"
#include "sim/simulation.hpp"

namespace gridmon::rgma {

/// Hop-span mark keyed on the tuple's first two integer columns (the
/// generator-row convention: id, sequence), for the producer and consumer
/// services alike. Tuples without that shape, or runs without a recorder,
/// are skipped.
void mark_tuple(const std::vector<SqlValue>& values, std::string_view stage);

struct ProducerServiceStats {
  std::uint64_t producers_refused = 0;
  std::uint64_t inserts_ok = 0;
  std::uint64_t inserts_failed = 0;
  std::uint64_t tuples_streamed = 0;
  std::uint64_t batches_sent = 0;
};

class ProducerService {
 public:
  ProducerService(cluster::Host& host, net::StreamTransport& streams,
                  net::Endpoint endpoint, net::Endpoint registry);

  /// Make a table definition known to this service (schema distribution).
  void add_table(const TableDef& table);

  /// Serve over HTTPS (TLS costs on every request).
  void set_secure(bool secure) { servlet_.set_secure(secure); }

  /// Periodically re-assert this service's registrations with the registry
  /// (soft-state heartbeats; pair with RegistryService::set_registration_ttl).
  void enable_registration_renewal(SimTime period);

  /// Bound registry round trips: a half-open registry accepts requests but
  /// never answers, so without this the renewal/registration handlers hang
  /// forever. Unanswered requests fail with 408 after `timeout` (0 = off).
  void set_registry_timeout(SimTime timeout) {
    servlet_.client().set_request_timeout(timeout);
  }

  /// Fault injection: the servlet container dies. Producer state (tuple
  /// stores, worker threads, attachments) is lost and its memory reclaimed;
  /// requests fail with 503 until restart(). Clients must re-declare their
  /// producers to resume publishing.
  void crash();
  void restart() { servlet_.restart(); }
  [[nodiscard]] bool down() const { return servlet_.down(); }

  [[nodiscard]] net::Endpoint endpoint() const { return servlet_.endpoint(); }
  [[nodiscard]] const ProducerServiceStats& stats() const { return stats_; }

 private:
  struct Attachment {
    int consumer_id = 0;
    net::Endpoint consumer_service;
    /// The push-down filter bound to the producer's table (empty = all
    /// rows).
    sql::CompiledPredicate compiled;
    std::uint64_t cursor = 0;
  };
  struct ProducerState {
    int id = 0;
    std::string table;
    TupleStore store;
    std::vector<Attachment> consumers;
    std::int64_t stored_bytes = 0;
  };

  // Servlet routes, one per request body; a failed insert or create
  // throws, which the container answers 400.
  void handle_insert(const InsertRequest& req);
  void handle_attach(const AttachConsumerNotice& notice);
  void handle_store_query(const StoreQueryRequest& req,
                          ServletHost::Responder& respond);
  void handle_create(const CreateProducerRequest& req);
  void stream_cycle();

  ServletHost servlet_;
  net::Endpoint registry_;
  sim::PeriodicTimer stream_timer_;
  sim::PeriodicTimer maintenance_timer_;
  sim::PeriodicTimer renewal_timer_;

  std::map<std::string, TableDef> tables_;
  std::map<int, ProducerState> producers_;
  ProducerServiceStats stats_;
};

}  // namespace gridmon::rgma
