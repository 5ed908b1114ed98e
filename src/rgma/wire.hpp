// Request/response bodies exchanged between R-GMA components over HTTP.
//
// Paths mirror the gLite servlet layout (/R-GMA/RegistryServlet, ...).
// Bodies travel as shared_ptr payloads; their modelled byte sizes come from
// the contained statements/tuples.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "rgma/schema.hpp"
#include "util/units.hpp"

namespace gridmon::rgma {

// --- registry ---------------------------------------------------------------

struct RegisterProducerRequest {
  int producer_id = 0;
  std::string table;
  net::Endpoint producer_service;
};

struct RegisterConsumerRequest {
  int consumer_id = 0;
  std::string query;  ///< SELECT text of the continuous query
  net::Endpoint consumer_service;
};

/// Registry → producer service: a consumer's continuous query now covers
/// this producer; stream new tuples to it.
struct AttachConsumerNotice {
  int producer_id = 0;
  int consumer_id = 0;
  net::Endpoint consumer_service;
  std::string predicate;  ///< WHERE text ("" = all rows)
};

/// Registry → consumer service: a new producer feeds this consumer's table
/// (the consumer's plan grows, lengthening its evaluation cycle).
struct AttachProducerNotice {
  int consumer_id = 0;
  int producer_id = 0;
  std::string table;
};

// --- producer service --------------------------------------------------------

struct CreateProducerRequest {
  int producer_id = 0;
  std::string table;
};

struct InsertRequest {
  int producer_id = 0;
  std::string statement;  ///< full SQL INSERT text, parsed server-side
};

// --- consumer service --------------------------------------------------------

struct CreateConsumerRequest {
  int consumer_id = 0;
  std::string query;  ///< SELECT text, parsed server-side
};

/// Producer service → consumer service: newly inserted tuples.
struct StreamBatch {
  int producer_id = 0;
  std::string table;
  std::vector<Tuple> tuples;

  [[nodiscard]] std::int64_t wire_size() const {
    std::int64_t total = 24;
    for (const auto& t : tuples) total += t.wire_size();
    return total;
  }
};

struct PollRequest {
  int consumer_id = 0;
};

struct PollResponse {
  std::vector<Tuple> tuples;

  [[nodiscard]] std::int64_t wire_size() const {
    std::int64_t total = 16;
    for (const auto& t : tuples) total += t.wire_size();
    return total;
  }
};

// --- one-time queries ---------------------------------------------------
//
// Besides continuous queries, R-GMA supports *latest* queries (the current
// value per primary key, bounded by the latest retention period) and
// *history* queries (everything within the history retention period) — the
// functionality the paper credits R-GMA for over plain MOM middleware.

enum class QueryType { kLatest, kHistory };

/// Client → consumer service: run a one-time query across the virtual
/// database (the mediator fans it out to every relevant producer).
struct OneTimeQueryRequest {
  std::string query;  ///< SELECT text
  QueryType type = QueryType::kLatest;
};

/// Soft-state renewal: producer services re-assert their registrations;
/// entries that stop being renewed expire from the registry (GMA's
/// directory entries are soft state).
struct RenewRegistrationsRequest {
  net::Endpoint producer_service;
  std::vector<int> producer_ids;
  /// Table per producer id (parallel to producer_ids). Lets the registry
  /// re-register a producer it no longer knows — the recovery path after a
  /// registry restart wiped its soft state.
  std::vector<std::string> tables;
};

/// Registry lookup: which producers currently publish `table`?
struct LookupProducersRequest {
  std::string table;
};
struct LookupProducersResponse {
  std::vector<std::pair<int, net::Endpoint>> producers;
};

/// Consumer service → producer service: evaluate a one-time query against
/// one producer's tuple store.
struct StoreQueryRequest {
  int producer_id = 0;
  QueryType type = QueryType::kLatest;
  std::string predicate;  ///< WHERE text ("" = all rows)
};
struct StoreQueryResponse {
  std::vector<Tuple> tuples;

  [[nodiscard]] std::int64_t wire_size() const {
    std::int64_t total = 16;
    for (const auto& t : tuples) total += t.wire_size();
    return total;
  }
};

}  // namespace gridmon::rgma
