// NaradaBrokering-style message broker.
//
// One Broker runs on one Host. It accepts client links over blocking TCP
// (thread per connection), NIO (selector event loop) or UDP (connectionless
// with Narada's per-packet acknowledgement cycle), maintains a subscription
// table with real JMS selector evaluation, and disseminates published events
// to matching local subscribers and to peer brokers in a broker network.
//
// Scaling behaviour is emergent, not scripted:
//  - each accepted TCP connection spawns a modelled thread (stack + buffers
//    charged to the heap); allocation failure refuses the connection — the
//    paper's OOM wall near 4000 connections;
//  - per-event CPU demand is inflated by the live thread count (context
//    switching), producing the smooth RTT growth of Fig 7;
//  - queued events hold heap, which raises GC pressure, which produces the
//    latency tail of Figs 4/8/9.
//
// The v1.1.3 deficiency the paper discovered — events broadcast to every
// broker in a Distributed Broker Network whether or not a subscriber lives
// there — is the default (`subscription_aware_routing = false`); flipping
// the flag forwards each event only to the brokers that advertised interest
// in its topic, which `gridmon_cli report ablation_dbn_routing` measures.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/host.hpp"
#include "core/history.hpp"
#include "jms/selector.hpp"
#include "narada/frames.hpp"
#include "narada/transport.hpp"
#include "net/http.hpp"
#include "net/stream.hpp"

namespace gridmon::narada {

struct BrokerConfig {
  net::Endpoint endpoint;
  TransportKind transport = TransportKind::kTcp;
  int broker_id = 0;
  /// false reproduces the v1.1.3 broadcast deficiency; true routes events
  /// only toward brokers with matching subscriptions.
  bool subscription_aware_routing = false;
  /// Reconnect backfill replication: retain published frames per
  /// (topic, origin broker) in a tiered HistoryBuffer and serve gap
  /// replays to reconnecting clients and healing peers. Off keeps every
  /// frame and wire size byte-identical to the classic runs.
  bool replay = false;
};

struct BrokerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;
  std::uint64_t events_received = 0;     ///< publishes from clients
  std::uint64_t events_delivered = 0;    ///< deliveries to local subscribers
  std::uint64_t events_forwarded = 0;    ///< relays to peer brokers
  std::uint64_t events_from_peers = 0;
  std::uint64_t udp_acks_sent = 0;
  std::uint64_t crashes = 0;             ///< fault-injected crash/restarts
  std::uint64_t backfill_msgs = 0;   ///< messages replayed from retention
  std::int64_t backfill_bytes = 0;   ///< wire bytes of replay traffic served
};

class Broker {
 public:
  Broker(cluster::Host& host, net::Lan& lan, net::StreamTransport& streams,
         BrokerConfig config);
  ~Broker();

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Begin listening (stream) and bind the UDP port.
  void start();

  /// Fault injection: kill the broker process. The listener closes, every
  /// client connection is torn down (their threads/buffers are reclaimed),
  /// and all soft state — subscriptions, pending UDP acks — is lost.
  /// Inter-broker links are owned by the DBN controller and assumed warm
  /// across the restart (the unit-controller keeps them up); chaos DBN
  /// scenarios cut them explicitly via Lan::set_path_blocked instead.
  void crash();
  /// Bring a crashed broker back up, empty: clients must reconnect and
  /// resubscribe before they see traffic again.
  void restart();
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Wire this broker into a network: `conn` is an established inter-broker
  /// stream, `side` our side of it. Called by the Dbn assembler.
  void add_peer(int peer_id, net::StreamConnectionPtr conn, int side);


  /// Replication repair after a partition heals: ask every peer to replay
  /// the retained frames we are missing (per-origin high watermarks).
  /// No-op unless `config.replay` is on.
  void request_peer_backfill();

  [[nodiscard]] const BrokerStats& stats() const { return stats_; }
  [[nodiscard]] cluster::Host& host() { return host_; }
  [[nodiscard]] net::Endpoint endpoint() const { return config_.endpoint; }
  [[nodiscard]] int id() const { return config_.broker_id; }
  [[nodiscard]] int subscription_count() const {
    return static_cast<int>(subscriptions_.size());
  }

 private:
  struct Subscription {
    std::string topic;
    jms::Selector selector;
    /// Delivery target: the client's stream connection (broker side), or
    /// null for a UDP subscriber, whose deliveries go to `udp`.
    net::StreamConnectionPtr conn;
    net::Endpoint udp;
    /// Replay chain: per-origin sequence of the last matching message sent
    /// to this subscriber (stamped as prev_seq so the client detects gaps
    /// even through a selector that filters most of the stream).
    std::map<int, std::uint64_t> last_sent{};
  };

  struct Peer {
    int id = -1;
    net::StreamConnectionPtr conn;
    int side = 0;
  };

  /// One data frame on its way to local subscribers, shared by client
  /// publishes and peer relays: its payload, the local subscriptions on
  /// its topic, and the retention stamp of its messages.
  struct Dispatch {
    std::int64_t bytes = 0;  ///< payload bytes of the frame's messages
    int fanout = 0;          ///< local subscriptions on the frame's topic
    int origin = -1;         ///< broker the messages entered the network at
    /// Sequence of the first message under (topic, origin); 0 = unstamped.
    std::uint64_t first_seq = 0;
    /// Leading messages this broker already retained (a replica's repeat
    /// of peer-replay traffic); they are not delivered again.
    std::size_t stale = 0;
    /// Heap the frame holds while queued (raises GC pressure under load).
    [[nodiscard]] std::int64_t held() const { return bytes * 3; }
  };

  void open_listeners();
  void close_listeners();

  void on_stream_accept(net::StreamConnectionPtr conn);
  void on_client_frame(const net::StreamConnectionPtr& conn,
                       const net::Datagram& datagram);
  void on_udp_datagram(const net::Datagram& datagram);
  void on_peer_frame(std::size_t peer_index, const net::Datagram& datagram);

  /// Admit a kSubscribe from a stream client (`conn`) or, with `conn`
  /// null, a UDP client. A selector that does not parse refuses this one
  /// subscription: nothing is added, charged or advertised.
  void admit_subscription(const Frame& frame, net::StreamConnectionPtr conn);

  /// Ingest a publish from a client (after any transport-specific delay).
  void ingest_publish(const FramePtr& frame);
  /// Relay/terminate a forwarded event from a peer.
  void ingest_forward(const FramePtr& frame);

  /// Weigh a data frame, hold its heap and, when `first_seq` > 0, retain
  /// its messages under (topic, origin) at consecutive sequences.
  Dispatch dispatch(const Frame& frame, int origin, std::uint64_t first_seq);
  /// Deliver the frame's messages past the first `stale` to every matching
  /// local subscriber, stamped from `first_seq` when it is non-zero.
  void deliver_messages(const Frame& frame, int origin,
                        std::uint64_t first_seq, std::size_t stale);
  /// Match subscriptions and deliver one message to every matching local
  /// subscriber. `origin`/`seq` carry the retention stamp (seq 0: none).
  void deliver_local(const jms::MessagePtr& message, const std::string& topic,
                     int origin, std::uint64_t seq);
  /// Serve a gap replay to a client subscription or a healing peer.
  void handle_backfill_request(const net::StreamConnectionPtr& conn,
                               const FramePtr& frame);
  void handle_peer_backfill_request(std::size_t peer_index,
                                    const FramePtr& frame);
  /// Replay what `request`'s topic retains past the requester's per-origin
  /// cursors on `conn`: kDeliver frames through `sub`'s selector for a
  /// client subscription, or kForward frames of every origin it lacks for
  /// a peer (`sub` null). Returns the per-origin served-upto cursors that
  /// close a client's backfill (none for a peer).
  std::vector<BackfillCursor> serve_history(const Frame& request,
                                            net::StreamConnection& conn,
                                            int side, const Subscription* sub);
  /// Send the event toward peer brokers per the routing policy.
  /// `first_seq` stamps the forward frames when replay is on.
  void disseminate(const FramePtr& frame, std::uint64_t first_seq);
  void send_to_peer(int peer_id, const FramePtr& frame);
  void advertise_subscription(const std::string& topic);

  [[nodiscard]] SimTime event_service_demand(std::int64_t bytes,
                                             int fanout) const;

  cluster::Host& host_;
  net::Lan& lan_;
  net::StreamTransport& streams_;
  BrokerConfig config_;
  util::Rng rng_;

  std::vector<Subscription> subscriptions_;
  /// Stream connections accepted from clients, kept so crash() can tear
  /// them down and return their thread/buffer accounting.
  std::vector<net::StreamConnectionPtr> client_conns_;
  std::vector<Peer> peers_;
  /// Topic interest advertised by each broker in the network (flooded
  /// kPeerSubscribe frames, deduplicated by (origin, topic)).
  std::map<int, std::set<std::string>> remote_topics_;
  /// The handshake frame every client link is sent on admission.
  FramePtr welcome_;

  /// Tiered retention per (topic, origin broker). Wiped by crash() — the
  /// retained frames die with the process.
  std::map<std::pair<std::string, int>, core::HistoryBuffer> history_;
  /// Per-topic sequence counters for locally-published frames. These
  /// survive crash(): a durable broker journals its high watermark even
  /// when the retained messages are lost, so post-restart stamps stay
  /// monotone and client cursors never see a wrapped stream.
  std::map<std::string, std::uint64_t> next_history_seq_;

  /// UDP publishes held until the next acknowledgement flush.
  std::deque<FramePtr> udp_pending_;
  sim::PeriodicTimer udp_ack_timer_;
  bool started_ = false;
  bool crashed_ = false;

  BrokerStats stats_;
};

}  // namespace gridmon::narada
