// MQTT client: the endpoint an edge device (or gateway) holds.
//
// Each simulated generator owns one client. A client CONNECTs to the
// broker with a deterministic client id, keeps the link alive with
// PINGREQ, subscribes with topic filters, and publishes at QoS 0/1/2:
//
//  - QoS 1 publishes are retransmitted with DUP until PUBACKed
//    (at-least-once, client-side redelivery timer);
//  - QoS 2 publishes run the PUBREC/PUBREL/PUBCOMP handshake
//    (exactly-once), with the same retransmission discipline;
//  - inbound QoS 2 deliveries are deduplicated by packet id, so the
//    application listener sees each exactly once.
//
// The stream lifecycle (refusal, loss, reconnect under backoff) is the
// shared net::ClientLink, as for the Narada client; CONNACK completes the
// handshake. After a reconnect the client resumes its session: if the
// broker kept it (CONNACK session_present) only the in-flight QoS 1/2
// window is redelivered; if the broker came back empty, the client
// resubscribes first, then redelivers, then flushes whatever the
// application published during the outage.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "cluster/host.hpp"
#include "mqtt/packets.hpp"
#include "net/client_link.hpp"

namespace gridmon::mqtt {

struct MqttClientOptions {
  std::string client_id;  ///< deterministic, e.g. "gen-0042"
  bool clean_session = true;
  SimTime keep_alive = units::seconds(30);  ///< 0 = no keep-alive contract
};

class MqttClient : public std::enable_shared_from_this<MqttClient> {
 public:
  /// ok=false means the broker refused the connection.
  using ReadyHandler = net::ClientLink::ReadyHandler;
  /// `arrived_at` is when the packet reached this host; the callback runs
  /// after the client library's receive-path CPU.
  using DeliveryListener =
      std::function<void(const PacketPtr&, SimTime arrived_at)>;
  /// `after_sending` is when the publish call returned.
  using SendCallback = std::function<void(SimTime after_sending)>;

  static std::shared_ptr<MqttClient> create(cluster::Host& host,
                                            net::StreamTransport& streams,
                                            net::Endpoint broker,
                                            net::Endpoint local,
                                            MqttClientOptions options);
  ~MqttClient();

  /// Establish the link (CONNECT/CONNACK). Packets issued before
  /// readiness are queued and flushed on CONNACK.
  void connect(ReadyHandler on_ready);

  /// Subscribe with a topic filter ('+'/'#' wildcards) at `qos`.
  void subscribe(const std::string& filter, int qos,
                 DeliveryListener listener);

  /// Publish `payload_bytes` to `topic` at `qos`. `message_id` identifies
  /// the sample end to end (metrics/obs); headers are stamped here.
  void publish(const std::string& topic, std::int64_t payload_bytes, int qos,
               std::string message_id, SendCallback on_sent = nullptr);

  /// Recover a lost link under `policy` (see net::ClientLink). Without it
  /// a lost link is permanent: the no-recovery baseline.
  void set_reconnect_policy(net::ReconnectPolicy policy);

  /// Readiness, refusal and the reconnect counter.
  [[nodiscard]] const net::ClientLink& link() const { return link_; }
  [[nodiscard]] std::uint64_t published() const { return published_; }
  [[nodiscard]] std::uint64_t received() const { return received_; }
  [[nodiscard]] std::uint64_t duplicates_received() const {
    return duplicates_received_;
  }
  [[nodiscard]] std::uint64_t retransmissions() const {
    return retransmissions_;
  }
  [[nodiscard]] std::uint64_t resubscribes() const { return resubscribes_; }
  [[nodiscard]] net::Endpoint local() const { return link_.local(); }

 private:
  struct InFlightPub {
    PacketPtr publish;
    bool awaiting_comp = false;  ///< QoS 2: PUBREC seen, PUBREL sent
    bool timer_armed = false;    ///< a retransmit check is scheduled
    SimTime last_sent = 0;
  };

  MqttClient(cluster::Host& host, net::StreamTransport& streams,
             net::Endpoint broker,
             net::Endpoint local, MqttClientOptions options);

  void send_connect();
  void send_packet(PacketPtr packet);
  void on_packet(const net::Datagram& datagram);
  void handle_publish(const PacketPtr& packet, SimTime arrived_at);
  void on_connack(const PacketPtr& packet);
  void resubscribe();
  /// Redeliver the unacknowledged QoS 1/2 window (DUP) after resumption.
  void redeliver_in_flight();
  void arm_retransmit(std::uint16_t packet_id);
  void start_keep_alive();

  cluster::Host& host_;
  MqttClientOptions options_;

  net::ClientLink link_;
  std::deque<PacketPtr> backlog_;

  std::string subscribed_filter_;
  int subscribed_qos_ = 0;
  bool has_subscription_ = false;
  DeliveryListener listener_;

  /// Outbound QoS 1/2 window, keyed by client-assigned packet id.
  std::map<std::uint16_t, InFlightPub> in_flight_;
  /// Inbound QoS 2 packet ids seen but not yet released (dedup).
  std::set<std::uint16_t> inbound_qos2_;
  std::uint16_t next_packet_id_ = 1;

  sim::PeriodicTimer keep_alive_timer_;

  std::uint64_t resubscribes_ = 0;

  std::uint64_t published_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t duplicates_received_ = 0;
  std::uint64_t retransmissions_ = 0;
};

}  // namespace gridmon::mqtt
