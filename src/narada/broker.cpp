#include "narada/broker.hpp"

#include <algorithm>

#include "cluster/costs.hpp"
#include "obs/memprof.hpp"
#include "obs/recorder.hpp"
#include "util/log.hpp"

namespace gridmon::narada {

namespace costs = cluster::costs;

namespace {

/// The broker's side of an accepted client connection.
constexpr int kClientSide = 1;

/// Hop-span mark for every message a frame carries (no-op unless the run
/// has an observability recorder installed and the message is sampled).
void mark_frame(const Frame& frame, std::string_view stage) {
  if constexpr (!obs::kEnabled) return;
  if (obs::tracer() == nullptr) return;
  for (const auto& message : messages_of(frame)) {
    obs::mark_message(message->message_id, stage);
  }
}

/// The handshake frame: a client treats a close before it as a refusal.
FramePtr welcome_frame() {
  Frame welcome;
  welcome.kind = FrameKind::kDeliver;
  welcome.topic = "$welcome";
  return std::make_shared<const Frame>(std::move(welcome));
}

/// Routing-state bytes of one subscription entry.
std::int64_t subscription_footprint(const std::string& topic) {
  return costs::kNaradaSubscriptionBytes +
         static_cast<std::int64_t>(topic.size());
}

}  // namespace

Broker::Broker(cluster::Host& host, net::Lan& lan,
               net::StreamTransport& streams, BrokerConfig config)
    : host_(host),
      lan_(lan),
      streams_(streams),
      config_(config),
      rng_(host.sim().rng_stream("narada.broker." +
                                 std::to_string(config.broker_id))),
      welcome_(welcome_frame()) {}

Broker::~Broker() {
  if (started_ && !crashed_) close_listeners();
}

void Broker::open_listeners() {
  streams_.listen(config_.endpoint, [this](net::StreamConnectionPtr conn) {
    on_stream_accept(std::move(conn));
  });
  lan_.bind(config_.endpoint,
            [this](const net::Datagram& dg) { on_udp_datagram(dg); });
}

void Broker::close_listeners() {
  streams_.close_listener(config_.endpoint);
  if (lan_.bound(config_.endpoint)) lan_.unbind(config_.endpoint);
}

void Broker::crash() {
  if (!started_ || crashed_) return;
  crashed_ = true;
  ++stats_.crashes;
  close_listeners();
  // Tear down every client link; the process's threads and buffers go with
  // it. Clients observe the close (their reconnect policy takes over).
  for (auto& conn : client_conns_) {
    if (config_.transport == TransportKind::kNio) {
      host_.heap().release(costs::kConnectionBufferBytes);
    } else {
      host_.exit_thread(costs::kConnectionBufferBytes);
    }
    if (conn && conn->open()) conn->close();
  }
  client_conns_.clear();
  for (const auto& sub : subscriptions_) {
    if (!sub.conn) host_.heap().release(costs::kConnectionBufferBytes / 4);
    obs::mem_sub(obs::MemCategory::kBrokerRouting,
                 subscription_footprint(sub.topic));
  }
  subscriptions_.clear();
  udp_pending_.clear();
  // Retained frames die with the process (the HistoryBuffer destructors
  // release the mem_history accounting). The per-topic sequence counters
  // survive — a durable broker journals its high watermark — so stamps
  // stay monotone across the restart.
  history_.clear();
  GRIDMON_WARN("narada.broker")
      << "broker " << config_.broker_id << " crashed";
}

void Broker::restart() {
  if (!started_ || !crashed_) return;
  crashed_ = false;
  open_listeners();
  GRIDMON_WARN("narada.broker")
      << "broker " << config_.broker_id << " restarted";
}

void Broker::start() {
  started_ = true;
  open_listeners();
  if (config_.transport == TransportKind::kUdp) {
    udp_ack_timer_ = sim::PeriodicTimer(
        host_.sim(), host_.sim().now() + costs::kUdpAckFlushPeriod,
        costs::kUdpAckFlushPeriod, [this] {
          // Acknowledge and release everything that arrived this cycle.
          while (!udp_pending_.empty()) {
            FramePtr frame = udp_pending_.front();
            udp_pending_.pop_front();
            host_.cpu().charge(costs::kUdpAckProcessing);
            lan_.send_datagram(config_.endpoint, frame->reply_to,
                               kControlFrameBytes, FramePtr{});
            ++stats_.udp_acks_sent;
            ingest_publish(frame);
          }
        });
  }
}

void Broker::on_stream_accept(net::StreamConnectionPtr conn) {
  if (crashed_) {
    conn->close();
    return;
  }
  // Blocking TCP dedicates a thread per connection; NIO only allocates
  // connection buffers on the shared selector loop.
  bool admitted;
  if (config_.transport == TransportKind::kNio) {
    admitted = host_.heap().allocate(costs::kConnectionBufferBytes);
  } else {
    admitted = host_.spawn_thread(costs::kConnectionBufferBytes);
  }
  if (!admitted) {
    ++stats_.connections_refused;
    if (stats_.connections_refused == 1) {
      GRIDMON_WARN("narada.broker")
          << "broker " << config_.broker_id
          << " refused connection (out of memory), threads="
          << host_.threads();
    }
    conn->close();
    return;
  }
  ++stats_.connections_accepted;
  client_conns_.push_back(conn);
  // Weak capture: the handler lives inside the connection, so a by-value
  // shared_ptr would form a self-cycle that outlives broker and client.
  // client_conns_ (and any in-flight frame events) keep the connection
  // alive for as long as the handler can still fire.
  conn->set_handler(
      kClientSide, [this, wconn = std::weak_ptr<net::StreamConnection>(conn)](
                       const net::Datagram& dg) {
        if (auto conn = wconn.lock()) on_client_frame(conn, dg);
      });
  conn->send(kClientSide, kControlFrameBytes, welcome_);
}

void Broker::on_client_frame(const net::StreamConnectionPtr& conn,
                             const net::Datagram& datagram) {
  if (crashed_) return;
  const auto frame = std::any_cast<FramePtr>(datagram.payload);
  switch (frame->kind) {
    case FrameKind::kSubscribe:
      admit_subscription(*frame, conn);
      break;
    case FrameKind::kUnsubscribe:
      std::erase_if(subscriptions_, [&](const Subscription& s) {
        const bool drop = s.conn == conn && s.topic == frame->topic;
        if (drop) {
          obs::mem_sub(obs::MemCategory::kBrokerRouting,
                       subscription_footprint(s.topic));
        }
        return drop;
      });
      break;
    case FrameKind::kPublish: {
      mark_frame(*frame, "wire");
      if (config_.transport == TransportKind::kNio) {
        // Selector-based server: the event is picked up at the next
        // selector wakeup rather than by a blocked reader thread.
        const auto delay = static_cast<SimTime>(
            rng_.uniform(0.0, static_cast<double>(costs::kNioPollGranularity)));
        host_.sim().schedule_after(delay,
                                   [this, frame] { ingest_publish(frame); });
      } else {
        ingest_publish(frame);
      }
      break;
    }
    case FrameKind::kClientAck:
      // Session acknowledgement bookkeeping.
      host_.cpu().charge(costs::kUdpAckProcessing);
      break;
    case FrameKind::kBackfillRequest:
      handle_backfill_request(conn, frame);
      break;
    default:
      break;
  }
}

void Broker::on_udp_datagram(const net::Datagram& datagram) {
  if (crashed_) return;
  if (!datagram.payload.has_value()) return;
  const auto* maybe = std::any_cast<FramePtr>(&datagram.payload);
  if (maybe == nullptr || !*maybe) return;
  const FramePtr frame = *maybe;
  switch (frame->kind) {
    case FrameKind::kSubscribe:
      admit_subscription(*frame, nullptr);
      break;
    case FrameKind::kPublish:
      // JMS-over-UDP: Narada acknowledges each packet on its bookkeeping
      // cycle before releasing it downstream — the paper's explanation for
      // UDP's surprisingly high round-trip times.
      mark_frame(*frame, "wire");
      udp_pending_.push_back(frame);
      break;
    case FrameKind::kClientAck:
      host_.cpu().charge(costs::kUdpAckProcessing);
      break;
    default:
      break;
  }
}

void Broker::admit_subscription(const Frame& frame,
                                net::StreamConnectionPtr conn) {
  jms::Selector selector;
  try {
    selector = jms::Selector::parse(frame.selector);
  } catch (const jms::SelectorParseError& error) {
    GRIDMON_WARN("narada.broker")
        << "broker " << config_.broker_id << " refused a subscription to "
        << frame.topic << ": " << error.what();
    return;
  }
  const bool via_udp = conn == nullptr;
  // A UDP subscription is the client's only registration: it holds a
  // quarter of a connection's buffers and counts as its connection.
  if (via_udp) {
    if (!host_.heap().allocate(costs::kConnectionBufferBytes / 4)) {
      ++stats_.connections_refused;
      return;
    }
    ++stats_.connections_accepted;
  }
  obs::mem_add(obs::MemCategory::kBrokerRouting,
               subscription_footprint(frame.topic));
  subscriptions_.push_back(Subscription{.topic = frame.topic,
                                        .selector = std::move(selector),
                                        .conn = std::move(conn),
                                        .udp = frame.reply_to});
  advertise_subscription(frame.topic);
  // The welcome datagram completes a UDP client's registration.
  if (via_udp) {
    lan_.send_datagram(config_.endpoint, frame.reply_to, kControlFrameBytes,
                       welcome_);
  }
}

SimTime Broker::event_service_demand(std::int64_t bytes, int fanout) const {
  SimTime demand = costs::kBrokerServiceBase +
                   static_cast<SimTime>(static_cast<double>(bytes) *
                                        costs::kSerializePerByteNs) +
                   costs::kBrokerFanoutCost * fanout;
  return host_.loaded(demand, costs::kThreadLoadFactor);
}

void Broker::ingest_publish(const FramePtr& frame) {
  if (crashed_) return;  // e.g. a deferred NIO selector wakeup post-crash
  ++stats_.events_received;
  const auto messages = messages_of(*frame);
  if (messages.empty()) return;
  mark_frame(*frame, "ingress");

  // Replay: stamp each message with the next per-topic sequence and retain
  // it under (topic, this broker) before dispatch, so a later gap replay
  // can serve it even if every subscriber is away right now.
  std::uint64_t first_seq = 0;
  if (config_.replay) {
    auto& next = next_history_seq_[frame->topic];
    first_seq = next + 1;
    next += messages.size();
  }
  const Dispatch d = dispatch(*frame, config_.broker_id, first_seq);

  // Fanout is part of the service demand. An aggregated frame pays the
  // dispatch base once but matches per message — the amortisation that
  // makes aggregation pay off.
  const auto message_count = static_cast<int>(messages.size());
  SimTime demand = event_service_demand(d.bytes, d.fanout * message_count);

  // Persistent delivery: force each event to stable storage before any
  // forwarding (the paper's tests ran non-persistent; the ablation bench
  // measures this alternative).
  if (messages.front()->delivery_mode == jms::DeliveryMode::kPersistent) {
    demand += (costs::kPersistWriteBase +
               static_cast<SimTime>(static_cast<double>(d.bytes) *
                                    costs::kPersistPerByteNs)) *
              static_cast<SimTime>(message_count);
  }

  host_.cpu().execute(demand, [this, frame, held = d.held(), first_seq] {
    mark_frame(*frame, "route_fanout");
    deliver_messages(*frame, config_.broker_id, first_seq, 0);
    disseminate(frame, first_seq);
    host_.heap().release(held);
  });
}

void Broker::ingest_forward(const FramePtr& frame) {
  ++stats_.events_from_peers;
  mark_frame(*frame, "peer_in");
  // Replication: mirror the origin's retention under its own numbering, so
  // a client that fails over to this broker can still replay its gap.
  // Retention refuses what it already holds, so a repeated peer-replay
  // sweep is neither retained nor delivered locally twice.
  const Dispatch d = dispatch(*frame, frame->origin_broker,
                              config_.replay ? frame->history_seq : 0);
  // A relayed event costs the receiving broker real work: deserialise the
  // inter-broker frame, then run the same matching/dispatch pipeline as a
  // locally published event. Under the broadcast deficiency every broker
  // pays this for every event in the network — the "unnecessary data flow"
  // whose CPU cost the paper observed in Fig 6.
  //
  // Dissemination runs on the broker's dedicated relay threads, so relay
  // work does not pay the connection-thread context-switch inflation —
  // otherwise two publishing brokers broadcasting at each other go
  // supercritical long before the paper's DBN did.
  //
  // Fan-out follows the publish rule: each message of an aggregated frame
  // is matched against every subscription on its topic.
  const auto message_count =
      static_cast<SimTime>(messages_of(*frame).size());
  const SimTime demand =
      costs::kBrokerForwardCost + costs::kBrokerServiceBase +
      static_cast<SimTime>(static_cast<double>(d.bytes) *
                           costs::kSerializePerByteNs) +
      costs::kBrokerFanoutCost * d.fanout * message_count;
  // This completion captures the whole dispatch (56 B, past EventFn's
  // 48 B inline buffer), so the kernel allocates it; the publish
  // completion captures 40 B and stays inline. cb_heap_allocs counts each
  // spill, so resizing either capture moves the kernel goldens and
  // gridbench's digest.
  host_.cpu().execute(demand, [this, frame, d] {
    mark_frame(*frame, "relay_route");
    host_.heap().release(d.held());
    // Terminal: the DBN is a full mesh, so every forward is one hop.
    deliver_messages(*frame, d.origin, d.first_seq, d.stale);
  });
}

Broker::Dispatch Broker::dispatch(const Frame& frame, int origin,
                                  std::uint64_t first_seq) {
  Dispatch d{.bytes = payload_bytes(frame),
             .origin = origin,
             .first_seq = first_seq};
  for (const auto& sub : subscriptions_) {
    if (sub.topic == frame.topic) ++d.fanout;
  }
  // Queued events hold heap while in flight (raises GC pressure under
  // load). Intentionally unchecked: a full heap degrades, not refuses.
  (void)host_.heap().allocate(d.held());
  if (first_seq > 0) {
    // A buffer refuses only sequences at or below its newest, so the
    // messages it already holds lead the frame.
    core::HistoryBuffer& buffer = history_[{frame.topic, origin}];
    std::uint64_t seq = first_seq;
    for (const auto& message : messages_of(frame)) {
      const std::int64_t bytes = kFrameHeaderBytes + message->wire_size();
      if (!buffer.append_at(seq++, message, bytes, host_.sim().now())) {
        ++d.stale;
      }
    }
  }
  return d;
}

void Broker::deliver_messages(const Frame& frame, int origin,
                              std::uint64_t first_seq, std::size_t stale) {
  const auto messages = messages_of(frame);
  for (std::size_t i = stale; i < messages.size(); ++i) {
    deliver_local(messages[i], frame.topic, origin,
                  first_seq > 0 ? first_seq + i : 0);
  }
}

void Broker::deliver_local(const jms::MessagePtr& message,
                           const std::string& topic, int origin,
                           std::uint64_t seq) {
  // Zero-copy fan-out: one immutable frame shared by every local delivery.
  // Clients consuming a kDeliver read only kind/topic/message (acking is
  // governed by their own mode), and the wire size is field-independent,
  // so the per-subscriber Frame allocation was pure overhead.
  FramePtr shared;
  std::int64_t shared_wire = 0;
  if (seq == 0) {
    shared = std::make_shared<const Frame>(
        Frame{FrameKind::kDeliver, topic, {}, message, -1, {}});
    shared_wire = frame_wire_size(*shared);
  }
  for (auto& sub : subscriptions_) {
    if (sub.topic != topic) continue;
    if (!sub.selector.matches(*message)) continue;
    FramePtr frame = shared;
    std::int64_t wire = shared_wire;
    if (seq > 0) {
      // Replay-stamped fan-out: each subscriber gets its own frame carrying
      // (origin, seq) plus the per-subscription prev_seq chain — the price
      // of gap detection through selectors. Fan-out in the replay scenarios
      // is small, so giving up the shared frame here is cheap.
      Frame stamped;
      stamped.kind = FrameKind::kDeliver;
      stamped.topic = topic;
      stamped.message = message;
      stamped.origin_broker = origin;
      stamped.history_seq = seq;
      stamped.prev_seq = sub.last_sent[origin];
      sub.last_sent[origin] = seq;
      frame = std::make_shared<const Frame>(std::move(stamped));
      wire = frame_wire_size(*frame);
    }
    if (!sub.conn) {
      lan_.send_datagram(config_.endpoint, sub.udp, wire, frame);
    } else if (sub.conn->open()) {
      sub.conn->send(kClientSide, wire, frame);
    }
    ++stats_.events_delivered;
  }
}

void Broker::disseminate(const FramePtr& frame, std::uint64_t first_seq) {
  if (peers_.empty()) return;

  const auto copy_cost = static_cast<SimTime>(
      static_cast<double>(payload_bytes(*frame)) * costs::kSerializePerByteNs);
  // The frame is identical for every peer, so one shared instance fans
  // out; each copy still costs the origin broker serialisation CPU and
  // link bandwidth.
  Frame fwd;
  fwd.kind = FrameKind::kForward;
  fwd.topic = frame->topic;
  fwd.message = frame->message;
  fwd.batch = frame->batch;
  fwd.origin_broker = config_.broker_id;
  fwd.history_seq = first_seq;
  const FramePtr forward = std::make_shared<const Frame>(std::move(fwd));

  if (!config_.subscription_aware_routing) {
    // v1.1.3 behaviour: broadcast the event to every peer, whether or not a
    // subscriber lives there (the deficiency the paper observed as
    // "unnecessary data flow between nodes").
    for (const Peer& peer : peers_) {
      host_.cpu().charge(host_.loaded(copy_cost, costs::kThreadLoadFactor));
      send_to_peer(peer.id, forward);
    }
    return;
  }

  // Subscription-aware routing: an event travels only to brokers that
  // advertised interest in the topic. Advertisements flood (deduplicated),
  // so every broker knows every broker's topic interest, and on the full
  // mesh each interested broker is one hop away.
  for (const auto& [target, topics] : remote_topics_) {
    if (target == config_.broker_id || !topics.contains(frame->topic)) {
      continue;
    }
    host_.cpu().charge(host_.loaded(copy_cost, costs::kThreadLoadFactor));
    send_to_peer(target, forward);
  }
}

void Broker::send_to_peer(int peer_id, const FramePtr& frame) {
  const auto it = std::find_if(peers_.begin(), peers_.end(),
                               [&](const Peer& p) { return p.id == peer_id; });
  if (it == peers_.end() || !it->conn || !it->conn->open()) return;
  it->conn->send(it->side, frame_wire_size(*frame), frame);
  ++stats_.events_forwarded;
}

void Broker::advertise_subscription(const std::string& topic) {
  for (const Peer& peer : peers_) {
    if (!peer.conn || !peer.conn->open()) continue;
    auto ad = std::make_shared<const Frame>(Frame{
        FrameKind::kPeerSubscribe, topic, {}, nullptr, config_.broker_id, {}});
    peer.conn->send(peer.side, kControlFrameBytes, ad);
  }
}

void Broker::add_peer(int peer_id, net::StreamConnectionPtr conn, int side) {
  const std::size_t index = peers_.size();
  peers_.push_back(Peer{peer_id, conn, side});
  conn->set_handler(side, [this, index](const net::Datagram& dg) {
    on_peer_frame(index, dg);
  });
}

void Broker::on_peer_frame(std::size_t peer_index,
                           const net::Datagram& datagram) {
  if (crashed_) return;  // peer traffic into a dead process is lost
  const auto frame = std::any_cast<FramePtr>(datagram.payload);
  switch (frame->kind) {
    case FrameKind::kPeerSubscribe: {
      // Deduplicate before flooding onward, so advertisements terminate in
      // cyclic topologies (the DBN mesh).
      const bool fresh =
          remote_topics_[frame->origin_broker].insert(frame->topic).second;
      if (!fresh) break;
      // Remote-topic interest is routing state too (one set node + chars).
      obs::mem_add(obs::MemCategory::kBrokerRouting,
                   costs::kNaradaRemoteTopicBytes +
                       static_cast<std::int64_t>(frame->topic.size()));
      const int from_id = peers_[peer_index].id;
      for (const Peer& other : peers_) {
        if (other.id == from_id || other.id == frame->origin_broker) continue;
        if (!other.conn || !other.conn->open()) continue;
        other.conn->send(other.side, kControlFrameBytes, frame);
      }
      break;
    }
    case FrameKind::kForward:
      ingest_forward(frame);
      break;
    case FrameKind::kBackfillRequest:
      handle_peer_backfill_request(peer_index, frame);
      break;
    default:
      break;
  }
}

void Broker::handle_backfill_request(const net::StreamConnectionPtr& conn,
                                     const FramePtr& frame) {
  if (!config_.replay || crashed_) return;
  // Serve per requesting subscription: replay only what its selector
  // matches, then close with a per-origin summary so the client can
  // advance its cursors past anything retention already evicted.
  for (const auto& sub : subscriptions_) {
    if (sub.conn != conn || sub.topic != frame->topic) continue;
    Frame reply;
    reply.kind = FrameKind::kBackfillReply;
    reply.topic = frame->topic;
    reply.cursors = serve_history(*frame, *conn, kClientSide, &sub);
    auto shared = std::make_shared<const Frame>(std::move(reply));
    conn->send(kClientSide, frame_wire_size(*shared), shared);
  }
}

void Broker::handle_peer_backfill_request(std::size_t peer_index,
                                          const FramePtr& frame) {
  if (!config_.replay || crashed_) return;
  const Peer& peer = peers_[peer_index];
  if (!peer.conn || !peer.conn->open()) return;
  serve_history(*frame, *peer.conn, peer.side, nullptr);
}

std::vector<BackfillCursor> Broker::serve_history(const Frame& request,
                                                  net::StreamConnection& conn,
                                                  int side,
                                                  const Subscription* sub) {
  const FrameKind kind = sub ? FrameKind::kDeliver : FrameKind::kForward;
  std::uint64_t& sent =
      sub ? stats_.events_delivered : stats_.events_forwarded;
  std::vector<BackfillCursor> served_upto;
  for (auto& [key, buffer] : history_) {
    if (key.first != request.topic) continue;
    const int origin = key.second;
    std::uint64_t cursor = 0;
    for (const BackfillCursor& c : request.cursors) {
      if (c.origin == origin) cursor = c.seq;
    }
    // A peer at or past everything this replica holds lacks none of it;
    // replay_since would read its cursor as a source restart and serve the
    // whole buffer (the requester is often the origin itself).
    if (!sub && cursor >= buffer.last_sequence()) continue;
    std::uint64_t served = 0;
    std::int64_t served_bytes = 0;
    const core::ReplayStats replayed = buffer.replay_since(
        cursor, host_.sim().now(),
        [&](std::uint64_t seq, const std::any& payload, std::int64_t) {
          const auto* message = std::any_cast<jms::MessagePtr>(&payload);
          if (message == nullptr || !*message) return;
          if (sub && !sub->selector.matches(**message)) return;
          Frame out;
          out.kind = kind;
          out.topic = request.topic;
          out.message = *message;
          out.origin_broker = origin;
          out.history_seq = seq;
          out.backfill = true;
          auto shared = std::make_shared<const Frame>(std::move(out));
          const std::int64_t wire = frame_wire_size(*shared);
          mark_frame(*shared, "backfill");
          conn.send(side, wire, shared);
          ++served;
          served_bytes += wire;
          ++sent;
        });
    if (served > 0) {
      // Re-serialising retained messages is real broker work.
      const SimTime demand =
          costs::kBrokerServiceBase +
          static_cast<SimTime>(static_cast<double>(served_bytes) *
                               costs::kSerializePerByteNs);
      host_.cpu().charge(host_.loaded(demand, costs::kThreadLoadFactor));
    }
    stats_.backfill_msgs += served;
    stats_.backfill_bytes += served_bytes;
    if (sub) {
      served_upto.push_back({origin, buffer.last_sequence(),
                             replayed.truncated});
    }
  }
  return served_upto;
}

void Broker::request_peer_backfill() {
  if (!config_.replay || crashed_ || peers_.empty()) return;
  // One request per topic we track, carrying our per-origin high
  // watermarks: peers replay only what we are missing.
  std::set<std::string> topics;
  for (const auto& [key, buffer] : history_) topics.insert(key.first);
  for (const auto& sub : subscriptions_) topics.insert(sub.topic);
  for (const std::string& topic : topics) {
    Frame request;
    request.kind = FrameKind::kBackfillRequest;
    request.topic = topic;
    for (const auto& [key, buffer] : history_) {
      if (key.first != topic) continue;
      request.cursors.push_back({key.second, buffer.last_sequence(), false});
    }
    auto shared = std::make_shared<const Frame>(std::move(request));
    const std::int64_t wire = frame_wire_size(*shared);
    for (const Peer& peer : peers_) {
      if (!peer.conn || !peer.conn->open()) continue;
      peer.conn->send(peer.side, wire, shared);
    }
  }
}

}  // namespace gridmon::narada
