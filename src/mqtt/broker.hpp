// MQTT-style message broker.
//
// One MqttBroker runs on one Host as a single-process event loop (no
// thread per connection — sessions cost heap, not stacks, so the broker's
// admission wall sits far beyond Narada's ~4000-thread OOM). It speaks a
// minimal deterministic MQTT 3.1.1 subset:
//
//  - CONNECT / CONNACK with deterministic client ids, clean and persistent
//    sessions (a persistent session keeps its subscriptions, queued
//    messages and in-flight QoS state across disconnects; CONNACK reports
//    session_present so the client knows whether to resubscribe);
//  - keep-alive: a session silent for 1.5 × its keep-alive interval is
//    expired;
//  - SUBSCRIBE with topic filters ('+' one level, '#' trailing levels);
//  - PUBLISH at QoS 0 (fire-and-forget), QoS 1 (PUBACK, at-least-once:
//    DUP redeliveries are re-ingested), QoS 2 (PUBREC/PUBREL/PUBCOMP,
//    exactly-once: duplicates parked by packet id until released);
//  - unacknowledged QoS 1/2 deliveries are re-sent with DUP on a periodic
//    retransmission sweep.
//
// crash() models a broker-process kill: every connection is torn down and
// all in-memory state — sessions, in-flight windows — is lost; restart()
// comes back empty, so recovery depends on the clients (reconnect,
// resubscribe, redeliver their own in-flight QoS 1/2 windows).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/host.hpp"
#include "core/history.hpp"
#include "mqtt/packets.hpp"
#include "mqtt/sub_index.hpp"
#include "net/lan.hpp"
#include "net/stream.hpp"

namespace gridmon::mqtt {

struct MqttBrokerConfig {
  net::Endpoint endpoint;
  int broker_id = 0;
};

struct MqttBrokerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;
  std::uint64_t sessions_resumed = 0;     ///< CONNACK session_present=1
  std::uint64_t publishes_received = 0;   ///< PUBLISH packets from clients
  std::uint64_t publishes_delivered = 0;  ///< deliveries to subscribers
  std::uint64_t qos2_duplicates_parked = 0;  ///< exactly-once dedup hits
  std::uint64_t sessions_expired = 0;
  std::uint64_t retransmissions = 0;      ///< broker-side DUP re-sends
  std::uint64_t crashes = 0;
  std::uint64_t queue_dropped = 0;   ///< offline-queue retention evictions
  std::uint64_t backfill_msgs = 0;   ///< offline-queue drains at resumption
  std::int64_t backfill_bytes = 0;   ///< bytes of those drained deliveries
};

class MqttBroker {
 public:
  MqttBroker(cluster::Host& host, net::Lan& lan,
             net::StreamTransport& streams, MqttBrokerConfig config);
  ~MqttBroker();

  MqttBroker(const MqttBroker&) = delete;
  MqttBroker& operator=(const MqttBroker&) = delete;

  /// Begin listening and start the retransmission / keep-alive sweeps.
  void start();

  /// Fault injection: kill the broker process. Every client connection is
  /// torn down and all soft state (sessions, in-flight QoS windows) is
  /// lost.
  void crash();
  /// Bring a crashed broker back up, empty: clients must reconnect,
  /// resubscribe and redeliver their own in-flight messages.
  void restart();
  [[nodiscard]] bool crashed() const { return crashed_; }

  [[nodiscard]] const MqttBrokerStats& stats() const { return stats_; }
  [[nodiscard]] cluster::Host& host() { return host_; }
  [[nodiscard]] net::Endpoint endpoint() const { return config_.endpoint; }
  [[nodiscard]] int session_count() const {
    return static_cast<int>(sessions_.size());
  }
  [[nodiscard]] int subscription_count() const;

 private:
  /// Broker→subscriber QoS 1/2 delivery awaiting its acknowledgement.
  struct InFlightOut {
    PacketPtr publish;       ///< the kPublish packet (packet_id assigned)
    bool awaiting_comp = false;  ///< QoS 2: PUBREC seen, waiting on PUBCOMP
    SimTime last_sent = 0;
  };

  struct Session {
    std::string client_id;
    bool clean = true;
    bool connected = false;
    net::StreamConnectionPtr conn;
    SimTime keep_alive = 0;
    SimTime last_seen = 0;
    /// (filter, granted max QoS), replace-on-resubscribe.
    std::vector<std::pair<std::string, int>> subscriptions;
    /// Outbound QoS 1/2 window, keyed by broker-assigned packet id.
    std::map<std::uint16_t, InFlightOut> in_flight;
    /// QoS 1/2 messages queued while a persistent session is offline,
    /// bounded by the HistoryBuffer retention windows (kHistory-accounted;
    /// evictions count into stats_.queue_dropped).
    core::HistoryBuffer offline_queue;
    /// Inbound QoS 2 messages parked until PUBREL (exactly-once dedup).
    std::map<std::uint16_t, PacketPtr> inbound_qos2;
    std::uint16_t next_packet_id = 1;
  };

  void on_stream_accept(net::StreamConnectionPtr conn);
  void handle_connect(const net::StreamConnectionPtr& conn,
                      const PacketPtr& packet);
  void on_session_packet(const std::string& client_id,
                         const net::Datagram& datagram);
  void handle_publish(Session& session, const PacketPtr& packet);
  /// Route a publish to matching subscribers (after CPU service time).
  void ingest_publish(const PacketPtr& packet);
  void deliver(Session& session, int granted_qos, const PacketPtr& publish);
  void send_to(Session& session, const PacketPtr& packet);
  void reply(Session& session, PacketType type, std::uint16_t packet_id);
  /// Detach the connection; a clean session is erased entirely.
  void drop_connection(const std::string& client_id);
  void retransmit_packets();
  void expire_sessions();
  void erase_session(const std::string& client_id);

  [[nodiscard]] SimTime packet_service_demand(std::int64_t bytes,
                                              int fanout) const;

  cluster::Host& host_;
  net::Lan& lan_;
  net::StreamTransport& streams_;
  MqttBrokerConfig config_;

  /// Sessions keyed by client id (ordered, so sweeps and fan-out walk the
  /// table deterministically). Map nodes are stable across other inserts.
  std::map<std::string, Session> sessions_;
  /// Every session's filters, kept in lockstep with the session
  /// subscription lists (subscribe / erase_session / crash).
  SubscriptionIndex sub_index_;
  /// Match-result scratch, reused across publishes.
  std::vector<SubscriptionIndex::Match> match_scratch_;

  sim::PeriodicTimer retransmit_timer_;
  sim::PeriodicTimer keep_alive_timer_;
  bool started_ = false;
  bool crashed_ = false;

  MqttBrokerStats stats_;
};

}  // namespace gridmon::mqtt
