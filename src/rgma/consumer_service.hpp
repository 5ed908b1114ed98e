// Consumer service.
//
// Runs consumers' continuous queries: producer services stream tuple
// batches here; a periodic evaluation cycle matches them against each
// consumer's SELECT (real predicate evaluation) and appends hits to the
// consumer's result buffer; subscriber programs poll that buffer over HTTP.
//
// The evaluation cycle length grows with the number of producers feeding
// the service (plan size), which is the dominant share of the paper's
// "very long Process Time" and the source of Fig 11's RTT slope.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "net/http.hpp"
#include "rgma/servlet.hpp"
#include "rgma/sql_compile.hpp"
#include "rgma/wire.hpp"
#include "sim/simulation.hpp"

namespace gridmon::rgma {

struct ConsumerServiceStats {
  std::uint64_t batches_received = 0;
  std::uint64_t tuples_matched = 0;
  std::uint64_t polls_served = 0;
};

class ConsumerService {
 public:
  ConsumerService(cluster::Host& host, net::StreamTransport& streams,
                  net::Endpoint endpoint, net::Endpoint registry);

  void add_table(const TableDef& table);

  /// Serve over HTTPS (TLS costs on every request).
  void set_secure(bool secure) { servlet_.set_secure(secure); }

  /// Legacy StreamProducer/Archiver delivery: incoming batches bypass the
  /// evaluation cycle and append directly to consumer buffers.
  void set_legacy_stream_api(bool legacy) { legacy_stream_api_ = legacy; }

  /// Periodically re-send every consumer's registration to the registry
  /// (soft-state heartbeats; the registry upserts, so steady-state renewals
  /// are cheap and only a wiped registry triggers re-mediation).
  void enable_registration_renewal(SimTime period);

  /// Bound registry round trips: a half-open registry accepts requests but
  /// never answers; unanswered requests fail with 408 after `timeout`
  /// (0 = off).
  void set_registry_timeout(SimTime timeout) {
    servlet_.client().set_request_timeout(timeout);
  }

  /// Fault injection: the servlet container dies. Consumer state (result
  /// buffers, worker threads, queued batches) is lost and its memory
  /// reclaimed; requests fail with 503 until restart(). Clients must
  /// re-create their consumers to resume receiving.
  void crash();
  void restart() { servlet_.restart(); }
  [[nodiscard]] bool down() const { return servlet_.down(); }

  [[nodiscard]] net::Endpoint endpoint() const { return servlet_.endpoint(); }
  [[nodiscard]] const ConsumerServiceStats& stats() const { return stats_; }
  [[nodiscard]] int attached_producers() const {
    return static_cast<int>(known_producers_.size());
  }
  /// Current continuous-query evaluation cycle length.
  [[nodiscard]] SimTime cycle_length() const;

 private:
  struct ConsumerState {
    int id = 0;
    std::string table;
    std::string query;  ///< original SELECT text (re-sent on renewal)
    /// The WHERE clause bound to the consumer's table.
    sql::CompiledPredicate compiled;
    std::vector<Tuple> buffer;
    std::int64_t buffered_bytes = 0;
  };

  // Servlet routes, one per request body; a create that fails throws,
  // which the container answers 400.
  void handle_batch(const StreamBatch& batch);
  void handle_attach(const AttachProducerNotice& notice);
  void handle_poll(const PollRequest& req, ServletHost::Responder& respond);
  void handle_one_time(const OneTimeQueryRequest& req,
                       ServletHost::Responder& respond);
  void handle_create(const CreateConsumerRequest& req);
  void evaluation_cycle();
  /// Buffer `tuple` for every consumer of `table` whose predicate selects
  /// it, and count it matched.
  void match_tuple(const std::string& table, const Tuple& tuple);
  void arm_cycle();

  ServletHost servlet_;
  net::Endpoint registry_;
  sim::ScheduledEvent cycle_event_;
  sim::PeriodicTimer renewal_timer_;

  std::map<std::string, TableDef> tables_;
  std::map<int, ConsumerState> consumers_;
  std::set<int> known_producers_;
  std::deque<StreamBatch> incoming_;
  std::int64_t queued_bytes_ = 0;
  bool legacy_stream_api_ = false;

  ConsumerServiceStats stats_;
};

}  // namespace gridmon::rgma
