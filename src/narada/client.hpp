// Narada client link: the JMS provider endpoint an application holds.
//
// Each simulated power generator owns one client (one "concurrent
// connection" in the paper's terminology). A client connects to one broker
// over TCP, NIO or UDP, then publishes and/or subscribes. Client-library
// CPU costs (message assembly, serialisation, listener dispatch) are charged
// to the host the client runs on.
//
// The stream lifecycle (refusal, loss, reconnect under backoff, fail-over
// to another DBN broker) is the shared net::ClientLink. The broker's
// "$welcome" frame completes the handshake; after a reconnect the client
// resubscribes, flushes what was published during the outage and, with
// replay on, asks the broker to backfill the gap.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/host.hpp"
#include "jms/message.hpp"
#include "narada/frames.hpp"
#include "narada/transport.hpp"
#include "net/client_link.hpp"

namespace gridmon::narada {

/// How long an aggregating publisher holds a partial batch before flushing.
inline constexpr SimTime kAggregationFlushDelay = units::milliseconds(20);

class NaradaClient : public std::enable_shared_from_this<NaradaClient> {
 public:
  /// ok=false means the broker refused the connection (its OOM wall).
  using ReadyHandler = net::ClientLink::ReadyHandler;
  /// `arrived_at` is when the frame reached this host (before_receiving in
  /// the paper's RTT decomposition); the callback itself runs at
  /// after_receiving.
  using DeliveryListener =
      std::function<void(const jms::MessagePtr&, SimTime arrived_at)>;
  /// `after_sending` is when the synchronous publish call returned.
  using SendCallback = std::function<void(SimTime after_sending)>;

  static std::shared_ptr<NaradaClient> create(cluster::Host& host,
                                              net::Lan& lan,
                                              net::StreamTransport& streams,
                                              net::Endpoint broker,
                                              net::Endpoint local,
                                              TransportKind transport);
  ~NaradaClient();

  /// Establish the link. Frames issued before readiness are queued.
  void connect(ReadyHandler on_ready);

  /// Register a topic subscription with a JMS selector.
  void subscribe(const std::string& topic, const std::string& selector,
                 jms::AcknowledgeMode ack_mode, DeliveryListener listener);

  /// Publish to a topic. Headers (JMSMessageID, JMSTimestamp) are stamped
  /// here, as the JMS provider does on send.
  void publish(jms::Message message, SendCallback on_sent = nullptr);

  /// CLIENT_ACKNOWLEDGE: acknowledge everything received so far.
  void acknowledge();

  /// Enable sender-side message aggregation (the RMM technique from the
  /// paper's related work): up to `batch_size` publishes are combined into
  /// one wire frame, flushed early after kAggregationFlushDelay.
  /// batch_size <= 1 disables aggregation (the default).
  void enable_aggregation(int batch_size);

  /// Recover a lost link under `policy` (see net::ClientLink). Without it
  /// a lost link is permanent: sends are silently dropped, the
  /// paper-faithful no-recovery baseline.
  void set_reconnect_policy(net::ReconnectPolicy policy);

  /// Enable reconnect gap replay. After a reconnect resubscribe (or a gap
  /// detected in the live delivery chain) the client lets the live stream
  /// settle for 500 ms, batching the gap into one request, then asks its
  /// broker to backfill everything past its per-origin cursors. At most two
  /// follow-up rounds chase gaps a reply leaves open.
  void enable_replay() { replay_enabled_ = true; }

  /// Readiness, refusal and the reconnect/rehome counters.
  [[nodiscard]] const net::ClientLink& link() const { return link_; }
  [[nodiscard]] std::uint64_t published() const { return published_; }
  [[nodiscard]] std::uint64_t received() const { return received_; }
  [[nodiscard]] std::uint64_t resubscribes() const { return resubscribes_; }
  [[nodiscard]] std::uint64_t backfill_received() const {
    return backfill_received_;
  }
  [[nodiscard]] std::int64_t backfill_bytes() const { return backfill_bytes_; }
  [[nodiscard]] net::Endpoint local() const { return link_.local(); }

 private:
  NaradaClient(cluster::Host& host, net::Lan& lan,
               net::StreamTransport& streams, net::Endpoint broker,
               net::Endpoint local, TransportKind transport);

  void send_frame(FramePtr frame);
  void on_frame(const net::Datagram& datagram);
  void handle_deliver(const FramePtr& frame, SimTime arrived_at);
  void flush_backlog();
  void resubscribe();
  /// Returns false when the stamped frame duplicates a sequence already
  /// delivered (the caller must drop it); otherwise records the delivery,
  /// advances the per-origin cursor and schedules a backfill on gaps.
  bool track_replay_delivery(const FramePtr& frame);
  void on_backfill_reply(const FramePtr& frame);
  void schedule_backfill();
  void request_backfill();

  cluster::Host& host_;
  net::Lan& lan_;
  TransportKind transport_;

  net::ClientLink link_;
  bool udp_bound_ = false;
  std::deque<FramePtr> backlog_;

  std::string subscribed_topic_;
  std::string subscribed_selector_;
  bool has_subscription_ = false;
  jms::AcknowledgeMode ack_mode_ = jms::AcknowledgeMode::kAutoAcknowledge;
  DeliveryListener listener_;

  std::uint64_t resubscribes_ = 0;

  // Replay (reconnect backfill) state.
  struct OriginCursor {
    std::uint64_t last = 0;         ///< newest contiguously-seen sequence
    std::set<std::uint64_t> ahead;  ///< delivered sequences beyond a gap
  };
  bool replay_enabled_ = false;
  std::map<int, OriginCursor> cursors_;  ///< keyed by origin broker id
  bool backfill_pending_ = false;
  int backfill_round_ = 0;
  std::uint64_t backfill_received_ = 0;
  std::int64_t backfill_bytes_ = 0;

  std::uint64_t next_message_seq_ = 1;
  std::uint64_t published_ = 0;
  std::uint64_t received_ = 0;

  // Aggregation state.
  int aggregation_size_ = 1;
  std::vector<std::pair<jms::MessagePtr, SendCallback>> aggregation_buffer_;
  sim::ScheduledEvent aggregation_flush_;

  void flush_aggregation();
};

}  // namespace gridmon::narada
