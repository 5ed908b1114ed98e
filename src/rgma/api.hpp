// Client-side R-GMA API objects (what application code holds).
//
// A PrimaryProducer wraps the insert path: it renders rows into SQL INSERT
// text on the client CPU and POSTs them to its producer service. A Consumer
// wraps a continuous query plus the polling loop the paper's subscriber
// used (the Consumer API could not notify, so the subscriber polled every
// 100 ms).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/host.hpp"
#include "net/client_link.hpp"
#include "net/http.hpp"
#include "rgma/wire.hpp"

namespace gridmon::rgma {

/// The paper's subscriber polled its Consumer every 100 ms (the API could
/// not notify), quantising SRT to that granularity.
inline constexpr SimTime kPollPeriod = units::milliseconds(100);

/// Producer redeclare backoff. No jitter: redeclares piggyback on the
/// deterministic insert path.
inline constexpr net::Backoff kRedeclareBackoff{units::seconds(1),
                                                units::seconds(10)};

class PrimaryProducer {
 public:
  /// `http` must outlive the producer and belong to `host`'s node.
  PrimaryProducer(cluster::Host& host, net::HttpClient& http,
                  net::Endpoint producer_service, int id, std::string table);

  /// Declare the producer (allocates its server-side thread). ok=false
  /// means the service refused it (out of memory).
  void declare(std::function<void(bool ok)> on_ready);

  /// Insert one row. `on_done(ok, after_sending)` fires when the HTTP
  /// response arrives — `after_sending` is the paper's PRT endpoint.
  void insert(std::vector<SqlValue> row,
              std::function<void(bool ok, SimTime after_sending)> on_done = {});

  /// Recovery policy: when an insert fails (producer container restarted,
  /// or the producer expired server-side), re-declare the producer after
  /// kRedeclareBackoff. One redeclare is in flight at a time; the backoff
  /// resets on success.
  void enable_redeclare() { redeclare_enabled_ = true; }

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] bool refused() const { return refused_; }
  [[nodiscard]] std::uint64_t redeclares() const { return redeclares_; }

 private:
  void schedule_redeclare();

  cluster::Host& host_;
  net::HttpClient& http_;
  net::Endpoint service_;
  int id_;
  std::string table_;
  bool refused_ = false;
  bool redeclare_enabled_ = false;
  int redeclare_attempt_ = 0;  ///< redeclares since the last success
  bool redeclaring_ = false;
  std::uint64_t redeclares_ = 0;
};

class Consumer {
 public:
  Consumer(cluster::Host& host, net::HttpClient& http,
           net::Endpoint consumer_service, int id, std::string query);

  /// Create the continuous query on the consumer service.
  void create(std::function<void(bool ok)> on_ready);

  /// One poll round trip. `before_receiving` is when the poll was issued
  /// (the paper's 100 ms polling quantises SRT to this granularity).
  void poll(std::function<void(std::vector<Tuple> tuples,
                               SimTime before_receiving)>
                on_tuples);

  /// One-time *latest* query: the current value per primary key across all
  /// producers of the table, within the latest retention period.
  void query_latest(
      std::function<void(std::vector<Tuple>, SimTime issued_at)> on_tuples) {
    one_time(QueryType::kLatest, std::move(on_tuples));
  }

  /// One-time *history* query: everything within the history retention
  /// period across all producers of the table.
  void query_history(
      std::function<void(std::vector<Tuple>, SimTime issued_at)> on_tuples) {
    one_time(QueryType::kHistory, std::move(on_tuples));
  }

  /// Recovery policy: when a poll fails (404 after a consumer-container
  /// restart, or 503 while it is down), re-create the continuous query
  /// after `timeout`. One re-create is in flight at a time.
  void enable_retry(SimTime timeout);

  /// Reconnect backfill: after each successful re-create, issue a one-time
  /// *history* query against producer retention and hand the results to
  /// `on_backfill` — the poll gap is filled from the paper's own history
  /// windows instead of being lost. The caller dedupes (already-delivered
  /// tuples simply re-arrive and are ignored by the in-flight map).
  void enable_replay(
      std::function<void(std::vector<Tuple>, SimTime issued_at)> on_backfill);

  [[nodiscard]] bool refused() const { return refused_; }
  [[nodiscard]] std::uint64_t recreates() const { return recreates_; }
  [[nodiscard]] std::uint64_t backfill_tuples() const {
    return backfill_tuples_;
  }
  [[nodiscard]] std::int64_t backfill_bytes() const { return backfill_bytes_; }

 private:
  void one_time(QueryType type,
                std::function<void(std::vector<Tuple>, SimTime)> on_tuples);
  void schedule_recreate();
  void request_backfill();
  /// Hand `resp`'s tuples to `then` once the client CPU has deserialised
  /// them; returns how many there are.
  template <typename Then>
  std::size_t receive(const net::HttpResponse& resp, Then then);

  cluster::Host& host_;
  net::HttpClient& http_;
  net::Endpoint service_;
  int id_;
  std::string query_;
  bool refused_ = false;
  bool retry_enabled_ = false;
  SimTime retry_timeout_ = 0;
  bool recreating_ = false;
  std::uint64_t recreates_ = 0;
  bool replay_enabled_ = false;
  std::function<void(std::vector<Tuple>, SimTime)> on_backfill_;
  std::uint64_t backfill_tuples_ = 0;
  std::int64_t backfill_bytes_ = 0;
};

}  // namespace gridmon::rgma
