#include "mqtt/client.hpp"

#include <utility>

#include "cluster/costs.hpp"
#include "obs/memprof.hpp"

namespace gridmon::mqtt {

namespace costs = cluster::costs;

namespace {

/// Unacknowledged QoS 1/2 publishes are re-sent (DUP) after this long.
constexpr SimTime kRetransmitTimeout = units::seconds(2);

}  // namespace

std::shared_ptr<MqttClient> MqttClient::create(cluster::Host& host,
                                               net::StreamTransport& streams,
                                               net::Endpoint broker,
                                               net::Endpoint local,
                                               MqttClientOptions options) {
  return std::shared_ptr<MqttClient>(
      new MqttClient(host, streams, broker, local, std::move(options)));
}

MqttClient::MqttClient(cluster::Host& host, net::StreamTransport& streams,
                       net::Endpoint broker, net::Endpoint local,
                       MqttClientOptions options)
    : host_(host),
      options_(std::move(options)),
      link_(streams, broker, local) {
  obs::mem_add(obs::MemCategory::kClientRecords, costs::kMqttClientBytes);
}

MqttClient::~MqttClient() {
  obs::mem_sub(obs::MemCategory::kClientRecords, costs::kMqttClientBytes);
}

void MqttClient::set_reconnect_policy(net::ReconnectPolicy policy) {
  link_.enable_reconnect(std::move(policy), "mqtt.reconnect");
}

void MqttClient::connect(ReadyHandler on_ready) {
  link_.connect(
      weak_from_this(),
      {.on_message =
           [self = weak_from_this()](const net::Datagram& dg) {
             if (auto c = self.lock()) c->on_packet(dg);
           },
       .on_open = [this] { send_connect(); },
       .on_lost = [this] { keep_alive_timer_ = sim::PeriodicTimer(); }},
      std::move(on_ready));
}

void MqttClient::send_connect() {
  auto connect = std::make_shared<Packet>();
  connect->type = PacketType::kConnect;
  connect->client_id = options_.client_id;
  connect->clean_session = options_.clean_session;
  connect->keep_alive = options_.keep_alive;
  host_.cpu().charge(costs::kMqttClientSendBase);
  const std::int64_t bytes = packet_wire_size(*connect);
  link_.send(bytes, PacketPtr(std::move(connect)));
}

void MqttClient::on_connack(const PacketPtr& packet) {
  if (link_.ready()) return;
  // Keep-alive is armed before the ready handler runs.
  start_keep_alive();
  if (link_.established()) {
    // Session resumption: if the broker came back empty (or we run clean
    // sessions), broker-side state must be rebuilt before anything else.
    if (!packet->session_present && has_subscription_) resubscribe();
    redeliver_in_flight();
  }
  while (!backlog_.empty()) {
    PacketPtr queued = backlog_.front();
    backlog_.pop_front();
    send_packet(std::move(queued));
  }
}

void MqttClient::start_keep_alive() {
  if (options_.keep_alive <= 0) return;
  keep_alive_timer_ = sim::PeriodicTimer(
      host_.sim(), host_.sim().now() + options_.keep_alive,
      options_.keep_alive, [self = weak_from_this()] {
        auto c = self.lock();
        if (!c || !c->link_.ready()) return;
        auto ping = std::make_shared<Packet>();
        ping->type = PacketType::kPingReq;
        c->send_packet(PacketPtr(std::move(ping)));
      });
}

void MqttClient::resubscribe() {
  ++resubscribes_;
  auto sub = std::make_shared<Packet>();
  sub->type = PacketType::kSubscribe;
  sub->topic = subscribed_filter_;
  sub->qos = subscribed_qos_;
  sub->packet_id = next_packet_id_++;
  if (next_packet_id_ == 0) next_packet_id_ = 1;
  send_packet(PacketPtr(std::move(sub)));
}

void MqttClient::redeliver_in_flight() {
  for (auto& [pid, entry] : in_flight_) {
    entry.last_sent = host_.sim().now();
    ++retransmissions_;
    if (entry.awaiting_comp) {
      auto rel = std::make_shared<Packet>();
      rel->type = PacketType::kPubRel;
      rel->packet_id = pid;
      send_packet(PacketPtr(std::move(rel)));
    } else {
      auto dup = std::make_shared<Packet>(*entry.publish);
      dup->duplicate = true;
      entry.publish = dup;
      send_packet(entry.publish);
    }
    // Retransmit checks die while the link is down (otherwise a long
    // no-recovery outage accumulates a timer per lost publish); restart
    // the window's clock now that the link is back.
    if (!entry.timer_armed) {
      entry.timer_armed = true;
      arm_retransmit(pid);
    }
  }
}

void MqttClient::send_packet(PacketPtr packet) {
  if (!link_.ready()) {
    // A disconnected QoS 1/2 publish is owned by the in-flight window and
    // redelivered at resumption — backlogging it too would double-send.
    // Acknowledgement traffic for broker state that no longer exists is
    // dropped; everything else (QoS 0 publishes, subscribes) queues.
    const bool windowed =
        packet->type == PacketType::kPublish && packet->qos > 0;
    const bool queueable = packet->type == PacketType::kPublish ||
                           packet->type == PacketType::kSubscribe;
    if (queueable && !windowed) backlog_.push_back(std::move(packet));
    return;
  }
  const std::int64_t bytes = packet_wire_size(*packet);
  link_.send(bytes, std::move(packet));
}

void MqttClient::subscribe(const std::string& filter, int qos,
                           DeliveryListener listener) {
  subscribed_filter_ = filter;
  subscribed_qos_ = qos;
  has_subscription_ = true;
  listener_ = std::move(listener);
  auto sub = std::make_shared<Packet>();
  sub->type = PacketType::kSubscribe;
  sub->topic = filter;
  sub->qos = qos;
  sub->packet_id = next_packet_id_++;
  if (next_packet_id_ == 0) next_packet_id_ = 1;
  send_packet(PacketPtr(std::move(sub)));
}

void MqttClient::publish(const std::string& topic, std::int64_t payload_bytes,
                         int qos, std::string message_id,
                         SendCallback on_sent) {
  auto packet = std::make_shared<Packet>();
  packet->type = PacketType::kPublish;
  packet->topic = topic;
  packet->qos = qos;
  packet->payload_bytes = payload_bytes;
  packet->message_id = std::move(message_id);
  packet->published_at = host_.sim().now();
  if (qos > 0) {
    packet->packet_id = next_packet_id_++;
    if (next_packet_id_ == 0) next_packet_id_ = 1;
  }

  const std::int64_t bytes = packet_wire_size(*packet);
  const SimTime demand =
      costs::kMqttClientSendBase +
      static_cast<SimTime>(static_cast<double>(bytes) *
                           costs::kSerializePerByteNs);
  host_.cpu().execute(demand, [self = shared_from_this(),
                               packet = PacketPtr(std::move(packet)),
                               on_sent = std::move(on_sent)] {
    if (packet->qos > 0) {
      self->in_flight_[packet->packet_id] =
          InFlightPub{packet, false, true, self->host_.sim().now()};
      self->arm_retransmit(packet->packet_id);
    }
    self->send_packet(packet);
    ++self->published_;
    if (on_sent) on_sent(self->host_.sim().now());
  });
}

void MqttClient::arm_retransmit(std::uint16_t packet_id) {
  host_.sim().schedule_after(
      kRetransmitTimeout, [self = weak_from_this(), packet_id] {
        auto c = self.lock();
        if (!c) return;
        const auto it = c->in_flight_.find(packet_id);
        if (it == c->in_flight_.end()) return;
        if (!c->link_.ready()) {
          // Link is down: the check dies here; redeliver_in_flight()
          // restarts it at session resumption.
          it->second.timer_armed = false;
          return;
        }
        it->second.last_sent = c->host_.sim().now();
        ++c->retransmissions_;
        if (it->second.awaiting_comp) {
          auto rel = std::make_shared<Packet>();
          rel->type = PacketType::kPubRel;
          rel->packet_id = packet_id;
          c->send_packet(PacketPtr(std::move(rel)));
        } else {
          auto dup = std::make_shared<Packet>(*it->second.publish);
          dup->duplicate = true;
          it->second.publish = dup;
          c->send_packet(it->second.publish);
        }
        c->arm_retransmit(packet_id);
      });
}

void MqttClient::on_packet(const net::Datagram& datagram) {
  if (!datagram.payload.has_value()) return;
  const auto* maybe = std::any_cast<PacketPtr>(&datagram.payload);
  if (maybe == nullptr || !*maybe) return;
  const PacketPtr& packet = *maybe;
  const SimTime arrived_at = host_.sim().now();

  switch (packet->type) {
    case PacketType::kConnAck:
      on_connack(packet);
      break;
    case PacketType::kPublish:
      handle_publish(packet, arrived_at);
      break;
    case PacketType::kPubAck:
      in_flight_.erase(packet->packet_id);
      break;
    case PacketType::kPubRec: {
      const auto it = in_flight_.find(packet->packet_id);
      if (it != in_flight_.end()) {
        it->second.awaiting_comp = true;
        it->second.last_sent = host_.sim().now();
      }
      auto rel = std::make_shared<Packet>();
      rel->type = PacketType::kPubRel;
      rel->packet_id = packet->packet_id;
      host_.cpu().charge(costs::kMqttClientSendBase);
      send_packet(PacketPtr(std::move(rel)));
      break;
    }
    case PacketType::kPubComp:
      in_flight_.erase(packet->packet_id);
      break;
    case PacketType::kPubRel:
      // Broker released an inbound QoS 2 delivery: forget the dedup id.
      inbound_qos2_.erase(packet->packet_id);
      {
        auto comp = std::make_shared<Packet>();
        comp->type = PacketType::kPubComp;
        comp->packet_id = packet->packet_id;
        host_.cpu().charge(costs::kMqttClientSendBase);
        send_packet(PacketPtr(std::move(comp)));
      }
      break;
    case PacketType::kSubAck:
    case PacketType::kPingResp:
    default:
      break;
  }
}

void MqttClient::handle_publish(const PacketPtr& packet, SimTime arrived_at) {
  bool deliver = true;
  switch (packet->qos) {
    case 0:
      break;
    case 1: {
      auto ack = std::make_shared<Packet>();
      ack->type = PacketType::kPubAck;
      ack->packet_id = packet->packet_id;
      host_.cpu().charge(costs::kMqttClientSendBase);
      send_packet(PacketPtr(std::move(ack)));
      if (packet->duplicate) ++duplicates_received_;
      break;
    }
    default: {
      // Exactly-once: deliver on first sight of the packet id, then hold
      // the id until the broker's PUBREL releases it.
      if (inbound_qos2_.contains(packet->packet_id)) {
        deliver = false;
        ++duplicates_received_;
      } else {
        inbound_qos2_.insert(packet->packet_id);
      }
      auto rec = std::make_shared<Packet>();
      rec->type = PacketType::kPubRec;
      rec->packet_id = packet->packet_id;
      host_.cpu().charge(costs::kMqttClientSendBase);
      send_packet(PacketPtr(std::move(rec)));
      break;
    }
  }
  if (!deliver) return;
  const SimTime demand =
      costs::kMqttClientReceiveBase +
      static_cast<SimTime>(static_cast<double>(packet->payload_bytes) *
                           costs::kSerializePerByteNs);
  auto self = shared_from_this();
  host_.cpu().execute(demand, [self, packet, arrived_at] {
    ++self->received_;
    if (self->listener_) self->listener_(packet, arrived_at);
  });
}

}  // namespace gridmon::mqtt
