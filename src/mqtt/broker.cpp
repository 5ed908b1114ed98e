#include "mqtt/broker.hpp"

#include <utility>
#include <vector>

#include "cluster/costs.hpp"
#include "obs/memprof.hpp"
#include "obs/recorder.hpp"
#include "util/log.hpp"

namespace gridmon::mqtt {

namespace costs = cluster::costs;

namespace {

/// Unacknowledged QoS 1/2 deliveries are re-sent (DUP) once they are older
/// than kRetransmitTimeout, checked every kRetransmitSweep.
constexpr SimTime kRetransmitTimeout = units::seconds(4);
constexpr SimTime kRetransmitSweep = units::seconds(1);
/// Keep-alive sessions expire after this many keep-alive periods of
/// silence (1.5 per the MQTT specification).
constexpr double kKeepAliveGrace = 1.5;

/// Hop-span mark for the sample a packet carries (no-op unless the run has
/// an observability recorder installed and the message is sampled).
void mark_packet(const PacketPtr& packet, std::string_view stage) {
  if constexpr (!obs::kEnabled) return;
  if (obs::tracer() == nullptr) return;
  if (!packet->message_id.empty()) {
    obs::mark_message(packet->message_id, stage);
  }
}

/// Bytes a session's routing/soft state charges to the model-memory
/// profile (subscription list entry or parked/queued message).
std::int64_t subscription_footprint(const std::string& filter) {
  return costs::kMqttSessionFilterBytes +
         static_cast<std::int64_t>(filter.size());
}

std::int64_t parked_footprint(const PacketPtr& packet) {
  return costs::kMqttPacketBytes +
         static_cast<std::int64_t>(packet->topic.size()) +
         packet->payload_bytes;
}

}  // namespace

MqttBroker::MqttBroker(cluster::Host& host, net::Lan& lan,
                       net::StreamTransport& streams, MqttBrokerConfig config)
    : host_(host), lan_(lan), streams_(streams), config_(config) {}

MqttBroker::~MqttBroker() {
  if (started_ && !crashed_) streams_.close_listener(config_.endpoint);
}

void MqttBroker::start() {
  started_ = true;
  streams_.listen(config_.endpoint, [this](net::StreamConnectionPtr conn) {
    on_stream_accept(std::move(conn));
  });
  retransmit_timer_ = sim::PeriodicTimer(
      host_.sim(), host_.sim().now() + kRetransmitSweep, kRetransmitSweep,
      [this] { retransmit_packets(); });
  keep_alive_timer_ = sim::PeriodicTimer(
      host_.sim(), host_.sim().now() + units::seconds(1), units::seconds(1),
      [this] { expire_sessions(); });
}

void MqttBroker::crash() {
  if (!started_ || crashed_) return;
  crashed_ = true;
  ++stats_.crashes;
  streams_.close_listener(config_.endpoint);
  // The process dies: every connection and all in-memory state goes.
  // Sessions are detached before the close so the deferred on_close
  // callbacks no-op.
  for (auto& [id, session] : sessions_) {
    if (session.connected) {
      host_.heap().release(costs::kMqttSessionBytes);
      session.connected = false;
    }
    auto conn = std::move(session.conn);
    session.conn.reset();
    if (conn && conn->open()) conn->close();
    for (const auto& [filter, qos] : session.subscriptions) {
      obs::mem_sub(obs::MemCategory::kBrokerRouting,
                   subscription_footprint(filter));
    }
    for (const auto& [pid, parked] : session.inbound_qos2) {
      obs::mem_sub(obs::MemCategory::kBrokerRouting,
                   parked_footprint(parked));
    }
    // Offline queues release their kHistory accounting via the
    // HistoryBuffer destructor when sessions_ clears below.
  }
  sessions_.clear();
  sub_index_.clear();
  GRIDMON_WARN("mqtt.broker") << "broker " << config_.broker_id << " crashed";
}

void MqttBroker::restart() {
  if (!started_ || !crashed_) return;
  crashed_ = false;
  streams_.listen(config_.endpoint, [this](net::StreamConnectionPtr conn) {
    on_stream_accept(std::move(conn));
  });
  GRIDMON_WARN("mqtt.broker")
      << "broker " << config_.broker_id << " restarted";
}

int MqttBroker::subscription_count() const {
  int count = 0;
  for (const auto& [id, session] : sessions_) {
    count += static_cast<int>(session.subscriptions.size());
  }
  return count;
}

SimTime MqttBroker::packet_service_demand(std::int64_t bytes,
                                          int fanout) const {
  const SimTime demand =
      costs::kMqttPacketBase +
      static_cast<SimTime>(static_cast<double>(bytes) *
                           costs::kSerializePerByteNs) +
      costs::kMqttFanoutCost * fanout;
  // Event-loop inflation grows with the live session table, not with
  // threads (there is one).
  const double load = 1.0 + costs::kMqttSessionLoadFactor *
                                static_cast<double>(sessions_.size());
  return static_cast<SimTime>(static_cast<double>(demand) * load);
}

void MqttBroker::on_stream_accept(net::StreamConnectionPtr conn) {
  if (crashed_) {
    conn->close();
    return;
  }
  // Session admission: socket buffers + session state on the event loop's
  // heap (no thread spawn — the MQTT wall is heap, far past Narada's).
  if (!host_.heap().allocate(costs::kMqttSessionBytes)) {
    ++stats_.connections_refused;
    conn->close();
    return;
  }
  ++stats_.connections_accepted;
  // First packet on a fresh connection must be CONNECT; the handler is
  // re-pointed at the session once the client identifies itself. Weak
  // capture: the handler lives inside the connection (self-cycle hazard).
  conn->set_handler(
      1, [this, wconn = std::weak_ptr<net::StreamConnection>(conn)](
             const net::Datagram& dg) {
        auto conn = wconn.lock();
        if (!conn || crashed_) return;
        if (!dg.payload.has_value()) return;
        const auto* maybe = std::any_cast<PacketPtr>(&dg.payload);
        if (maybe == nullptr || !*maybe) return;
        if ((*maybe)->type != PacketType::kConnect) return;
        handle_connect(conn, *maybe);
      });
}

void MqttBroker::handle_connect(const net::StreamConnectionPtr& conn,
                                const PacketPtr& packet) {
  host_.cpu().charge(packet_service_demand(packet_wire_size(*packet), 0));
  const std::string& id = packet->client_id;
  auto it = sessions_.find(id);
  bool resumed = false;
  if (it != sessions_.end()) {
    Session& existing = it->second;
    if (existing.connected) {
      // Client takeover: the old connection is superseded (MQTT allows one
      // connection per client id). Detach first so its close handler no-ops.
      auto old = std::move(existing.conn);
      existing.conn.reset();
      existing.connected = false;
      host_.heap().release(costs::kMqttSessionBytes);
      if (old && old->open()) old->close();
    }
    if (packet->clean_session) {
      erase_session(id);
      it = sessions_.end();
    } else {
      resumed = true;
    }
  }
  if (it == sessions_.end()) {
    it = sessions_.try_emplace(id).first;
    it->second.client_id = id;
    it->second.offline_queue = core::HistoryBuffer();
  }
  Session& session = it->second;
  session.clean = packet->clean_session;
  session.connected = true;
  session.conn = conn;
  session.keep_alive = packet->keep_alive;
  session.last_seen = host_.sim().now();
  if (resumed) ++stats_.sessions_resumed;

  // Route subsequent packets through the session; notice connection loss
  // via the close handler.
  conn->set_handler(
      1,
      [this, id](const net::Datagram& dg) { on_session_packet(id, dg); },
      [this, id, wconn = std::weak_ptr<net::StreamConnection>(conn)] {
        if (crashed_) return;
        const auto it = sessions_.find(id);
        if (it == sessions_.end() || !it->second.connected) return;
        // Only the connection we still consider current counts: a detach
        // (takeover, expiry, crash) already reset session.conn.
        if (it->second.conn != wconn.lock()) return;
        drop_connection(id);
      });

  Packet ack;
  ack.type = PacketType::kConnAck;
  ack.session_present = resumed;
  conn->send(1, kControlPacketBytes, std::make_shared<const Packet>(ack));

  if (resumed) {
    // Session resumption: re-send the unacknowledged QoS 1/2 window, then
    // drain everything queued while the client was away.
    for (auto& [pid, entry] : session.in_flight) {
      if (entry.awaiting_comp) {
        reply(session, PacketType::kPubRel, pid);
      } else {
        auto dup = std::make_shared<Packet>(*entry.publish);
        dup->duplicate = true;
        entry.publish = dup;
        entry.last_sent = host_.sim().now();
        send_to(session, dup);
      }
      ++stats_.retransmissions;
    }
    std::uint64_t drained = 0;
    std::int64_t drained_bytes = 0;
    // The replay first applies the retention windows, which may evict what
    // no later publish pruned.
    const std::int64_t dropped_before = session.offline_queue.dropped();
    session.offline_queue.replay_since(
        0, host_.sim().now(),
        [&](std::uint64_t, const std::any& payload, std::int64_t bytes) {
          const auto* queued = std::any_cast<PacketPtr>(&payload);
          if (queued == nullptr || !*queued) return;
          mark_packet(*queued, "backfill");
          deliver(session, (*queued)->qos, *queued);
          ++drained;
          drained_bytes += bytes;
        });
    stats_.queue_dropped += static_cast<std::uint64_t>(
        session.offline_queue.dropped() - dropped_before);
    // Reset the queue (releases its retention accounting): everything it
    // held is now in the live in-flight window.
    session.offline_queue = core::HistoryBuffer();
    stats_.backfill_msgs += drained;
    stats_.backfill_bytes += drained_bytes;
  }
}

void MqttBroker::on_session_packet(const std::string& client_id,
                                   const net::Datagram& datagram) {
  if (crashed_) return;
  const auto it = sessions_.find(client_id);
  if (it == sessions_.end() || !it->second.connected) return;
  if (!datagram.payload.has_value()) return;
  const auto* maybe = std::any_cast<PacketPtr>(&datagram.payload);
  if (maybe == nullptr || !*maybe) return;
  const PacketPtr& packet = *maybe;
  Session& session = it->second;
  session.last_seen = host_.sim().now();

  switch (packet->type) {
    case PacketType::kConnect:
      // Duplicate CONNECT on a live session is a protocol error; ignore.
      break;
    case PacketType::kSubscribe: {
      host_.cpu().charge(
          packet_service_demand(packet_wire_size(*packet), 0));
      const int granted = packet->qos;
      bool replaced = false;
      for (auto& [filter, qos] : session.subscriptions) {
        if (filter == packet->topic) {
          qos = granted;
          replaced = true;
          break;
        }
      }
      if (!replaced) {
        session.subscriptions.emplace_back(packet->topic, granted);
        obs::mem_add(obs::MemCategory::kBrokerRouting,
                     subscription_footprint(packet->topic));
      }
      // Keep the index in lockstep (updates the grant on resubscribe).
      sub_index_.subscribe(packet->topic, session.client_id, &session,
                           granted);
      reply(session, PacketType::kSubAck, packet->packet_id);
      break;
    }
    case PacketType::kPublish:
      handle_publish(session, packet);
      break;
    case PacketType::kPubRel: {
      // Publisher releases a parked QoS 2 message: deliver exactly once.
      const auto parked = session.inbound_qos2.find(packet->packet_id);
      if (parked != session.inbound_qos2.end()) {
        PacketPtr stored = parked->second;
        session.inbound_qos2.erase(parked);
        obs::mem_sub(obs::MemCategory::kBrokerRouting,
                     parked_footprint(stored));
        ingest_publish(stored);
      }
      reply(session, PacketType::kPubComp, packet->packet_id);
      break;
    }
    case PacketType::kPubAck:
      // Subscriber acknowledged a QoS 1 delivery.
      session.in_flight.erase(packet->packet_id);
      break;
    case PacketType::kPubRec: {
      // Subscriber stored a QoS 2 delivery: release it.
      const auto entry = session.in_flight.find(packet->packet_id);
      if (entry != session.in_flight.end()) {
        entry->second.awaiting_comp = true;
        entry->second.last_sent = host_.sim().now();
      }
      reply(session, PacketType::kPubRel, packet->packet_id);
      break;
    }
    case PacketType::kPubComp:
      session.in_flight.erase(packet->packet_id);
      break;
    case PacketType::kPingReq:
      host_.cpu().charge(costs::kMqttPacketBase);
      reply(session, PacketType::kPingResp, 0);
      break;
    default:
      break;
  }
}

void MqttBroker::handle_publish(Session& session, const PacketPtr& packet) {
  ++stats_.publishes_received;
  mark_packet(packet, "wire");
  switch (packet->qos) {
    case 0:
      ingest_publish(packet);
      break;
    case 1:
      // At-least-once: acknowledge and ingest every copy — a DUP
      // redelivery whose original made it through becomes a duplicate
      // delivery downstream, exactly the QoS 1 contract.
      reply(session, PacketType::kPubAck, packet->packet_id);
      ingest_publish(packet);
      break;
    default: {
      // Exactly-once: park the message under its packet id until PUBREL.
      // A DUP copy of a parked id acknowledges again without re-parking.
      const auto parked = session.inbound_qos2.find(packet->packet_id);
      if (parked == session.inbound_qos2.end()) {
        session.inbound_qos2.emplace(packet->packet_id, packet);
        obs::mem_add(obs::MemCategory::kBrokerRouting,
                     parked_footprint(packet));
      } else {
        ++stats_.qos2_duplicates_parked;
      }
      reply(session, PacketType::kPubRec, packet->packet_id);
      break;
    }
  }
}

void MqttBroker::ingest_publish(const PacketPtr& packet) {
  if (crashed_) return;
  mark_packet(packet, "ingress");

  // Fan-out is part of the service demand: count matching subscriptions
  // first.
  sub_index_.match(packet->topic, match_scratch_);
  const int fanout = static_cast<int>(match_scratch_.size());
  const std::int64_t bytes = packet_wire_size(*packet);
  // In-flight publishes hold heap until dispatched (degrades, not refuses).
  const std::int64_t transient = bytes * 2;
  (void)host_.heap().allocate(transient);
  host_.cpu().execute(
      packet_service_demand(bytes, fanout), [this, packet, transient] {
        mark_packet(packet, "match_fanout");
        host_.heap().release(transient);
        if (crashed_) return;
        // Re-match at dispatch: sessions may have come or gone during the
        // service delay.
        sub_index_.match(packet->topic, match_scratch_);
        for (const auto& m : match_scratch_) {
          // One delivery per session, at its best-matching grant.
          deliver(*static_cast<Session*>(m.handle), m.qos, packet);
        }
      });
}

void MqttBroker::deliver(Session& session, int granted_qos,
                         const PacketPtr& publish) {
  const int qos = publish->qos < granted_qos ? publish->qos : granted_qos;
  if (qos == 0) {
    if (!session.connected) return;  // fire-and-forget: offline drops
    auto out = std::make_shared<Packet>(*publish);
    out->qos = 0;
    out->duplicate = false;
    out->packet_id = 0;
    ++stats_.publishes_delivered;
    send_to(session, std::move(out));
    return;
  }
  if (!session.connected) {
    if (session.clean) return;
    // Persistent session: queue for redelivery at resumption, under the
    // retention policy — drop-oldest once the bound is hit, honestly
    // counted instead of growing without limit.
    auto queued = std::make_shared<Packet>(*publish);
    queued->qos = qos;
    const std::int64_t bytes = parked_footprint(queued);
    const std::int64_t dropped_before = session.offline_queue.dropped();
    session.offline_queue.append(PacketPtr(std::move(queued)), bytes,
                                 host_.sim().now());
    stats_.queue_dropped += static_cast<std::uint64_t>(
        session.offline_queue.dropped() - dropped_before);
    return;
  }
  auto out = std::make_shared<Packet>(*publish);
  out->qos = qos;
  out->duplicate = false;
  // Broker-assigned id for the outbound QoS 1/2 window (0 is reserved).
  if (session.next_packet_id == 0) session.next_packet_id = 1;
  out->packet_id = session.next_packet_id++;
  PacketPtr shared = std::move(out);
  session.in_flight[shared->packet_id] =
      InFlightOut{shared, false, host_.sim().now()};
  ++stats_.publishes_delivered;
  send_to(session, shared);
}

void MqttBroker::send_to(Session& session, const PacketPtr& packet) {
  if (!session.conn || !session.conn->open()) return;
  session.conn->send(1, packet_wire_size(*packet), packet);
}

void MqttBroker::reply(Session& session, PacketType type,
                       std::uint16_t packet_id) {
  Packet packet;
  packet.type = type;
  packet.packet_id = packet_id;
  host_.cpu().charge(costs::kMqttPacketBase);
  send_to(session, std::make_shared<const Packet>(packet));
}

void MqttBroker::drop_connection(const std::string& client_id) {
  const auto it = sessions_.find(client_id);
  if (it == sessions_.end()) return;
  Session& session = it->second;
  if (session.connected) {
    session.connected = false;
    host_.heap().release(costs::kMqttSessionBytes);
    auto conn = std::move(session.conn);
    session.conn.reset();
    if (conn && conn->open()) conn->close();
  }
  if (session.clean) erase_session(client_id);
}

void MqttBroker::erase_session(const std::string& client_id) {
  const auto it = sessions_.find(client_id);
  if (it == sessions_.end()) return;
  Session& session = it->second;
  for (const auto& [filter, qos] : session.subscriptions) {
    obs::mem_sub(obs::MemCategory::kBrokerRouting,
                 subscription_footprint(filter));
    sub_index_.remove(filter, &session);
  }
  for (const auto& [pid, parked] : session.inbound_qos2) {
    obs::mem_sub(obs::MemCategory::kBrokerRouting, parked_footprint(parked));
  }
  // The offline queue's retention accounting releases in its destructor.
  sessions_.erase(it);
}

void MqttBroker::retransmit_packets() {
  if (crashed_) return;
  const SimTime now = host_.sim().now();
  for (auto& [id, session] : sessions_) {
    if (!session.connected) continue;
    for (auto& [pid, entry] : session.in_flight) {
      if (now - entry.last_sent < kRetransmitTimeout) continue;
      entry.last_sent = now;
      ++stats_.retransmissions;
      if (entry.awaiting_comp) {
        reply(session, PacketType::kPubRel, pid);
      } else {
        auto dup = std::make_shared<Packet>(*entry.publish);
        dup->duplicate = true;
        entry.publish = dup;
        send_to(session, entry.publish);
      }
    }
  }
}

void MqttBroker::expire_sessions() {
  if (crashed_) return;
  const SimTime now = host_.sim().now();
  std::vector<std::string> expired;
  for (const auto& [id, session] : sessions_) {
    if (!session.connected || session.keep_alive <= 0) continue;
    const auto deadline = static_cast<SimTime>(
        static_cast<double>(session.keep_alive) * kKeepAliveGrace);
    if (now - session.last_seen > deadline) expired.push_back(id);
  }
  for (const std::string& id : expired) {
    ++stats_.sessions_expired;
    drop_connection(id);
  }
}

}  // namespace gridmon::mqtt
