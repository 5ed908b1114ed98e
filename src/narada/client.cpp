#include "narada/client.hpp"


#include <algorithm>

#include "cluster/costs.hpp"
#include "obs/memprof.hpp"

namespace gridmon::narada {

namespace costs = cluster::costs;

namespace {

/// Replay: the settle before a backfill request, and the follow-up rounds
/// a reply that leaves gaps open may trigger.
constexpr SimTime kReplaySettle = units::milliseconds(500);
constexpr int kReplayMaxRetries = 2;

}  // namespace

std::shared_ptr<NaradaClient> NaradaClient::create(
    cluster::Host& host, net::Lan& lan, net::StreamTransport& streams,
    net::Endpoint broker, net::Endpoint local, TransportKind transport) {
  return std::shared_ptr<NaradaClient>(
      new NaradaClient(host, lan, streams, broker, local, transport));
}

NaradaClient::NaradaClient(cluster::Host& host, net::Lan& lan,
                           net::StreamTransport& streams, net::Endpoint broker,
                           net::Endpoint local, TransportKind transport)
    : host_(host),
      lan_(lan),
      transport_(transport),
      link_(streams, broker, local) {
  // Model-memory accounting: one per-client record (the ROADMAP's
  // million-generator wall is exactly this state times a million).
  obs::mem_add(obs::MemCategory::kClientRecords, costs::kNaradaClientBytes);
}

NaradaClient::~NaradaClient() {
  if (udp_bound_) lan_.unbind(local());
  obs::mem_sub(obs::MemCategory::kClientRecords, costs::kNaradaClientBytes);
}

void NaradaClient::set_reconnect_policy(net::ReconnectPolicy policy) {
  link_.enable_reconnect(std::move(policy), "narada.reconnect");
}

void NaradaClient::connect(ReadyHandler on_ready) {
  auto on_message = [self = weak_from_this()](const net::Datagram& dg) {
    if (auto client = self.lock()) client->on_frame(dg);
  };
  if (transport_ == TransportKind::kUdp) {
    // Connectionless: bind the local port for deliveries/acks and become
    // ready immediately; registration happens per subscription.
    lan_.bind(local(), std::move(on_message));
    udp_bound_ = true;
    link_.connect_without_stream(std::move(on_ready));
    flush_backlog();
    return;
  }
  link_.connect(weak_from_this(),
                {.on_message = std::move(on_message),
                 .on_lost =
                     [this] {
                       // Any in-flight backfill died with the link; the
                       // post-welcome resubscribe path starts a fresh round.
                       backfill_pending_ = false;
                       backfill_round_ = 0;
                     }},
                std::move(on_ready));
}

void NaradaClient::flush_backlog() {
  while (!backlog_.empty()) {
    FramePtr frame = std::move(backlog_.front());
    backlog_.pop_front();
    send_frame(std::move(frame));
  }
}

void NaradaClient::resubscribe() {
  ++resubscribes_;
  Frame frame;
  frame.kind = FrameKind::kSubscribe;
  frame.topic = subscribed_topic_;
  frame.selector = subscribed_selector_;
  frame.reply_to = local();
  send_frame(std::make_shared<const Frame>(std::move(frame)));
}

void NaradaClient::send_frame(FramePtr frame) {
  if (!link_.ready()) {
    backlog_.push_back(std::move(frame));
    return;
  }
  const std::int64_t wire = frame_wire_size(*frame);
  if (transport_ == TransportKind::kUdp) {
    lan_.send_datagram(local(), link_.broker(), wire, std::move(frame));
  } else {
    link_.send(wire, std::move(frame));
  }
}

void NaradaClient::subscribe(const std::string& topic,
                             const std::string& selector,
                             jms::AcknowledgeMode ack_mode,
                             DeliveryListener listener) {
  subscribed_topic_ = topic;
  subscribed_selector_ = selector;
  has_subscription_ = true;
  ack_mode_ = ack_mode;
  listener_ = std::move(listener);

  auto frame = std::make_shared<const Frame>(
      Frame{FrameKind::kSubscribe, topic, selector, nullptr, -1, local()});
  send_frame(std::move(frame));
}

void NaradaClient::enable_aggregation(int batch_size) {
  aggregation_size_ = batch_size > 1 ? batch_size : 1;
}

void NaradaClient::flush_aggregation() {
  if (aggregation_buffer_.empty()) return;
  aggregation_flush_.cancel();
  auto batch = std::move(aggregation_buffer_);
  aggregation_buffer_.clear();

  // One serialisation pass for the whole batch: per-message overhead is
  // amortised — exactly the RMM effect.
  std::int64_t bytes = kFrameHeaderBytes;
  for (const auto& [message, cb] : batch) bytes += message->wire_size();
  const SimTime demand =
      costs::kClientSendBase +
      static_cast<SimTime>(static_cast<double>(bytes) *
                           costs::kSerializePerByteNs);
  host_.cpu().execute(demand, [self = shared_from_this(),
                               batch = std::move(batch)] {
    Frame frame;
    frame.kind = FrameKind::kPublish;
    frame.topic = batch.front().first->destination;
    frame.reply_to = self->local();
    frame.batch.reserve(batch.size());
    for (const auto& [message, cb] : batch) frame.batch.push_back(message);
    self->send_frame(std::make_shared<const Frame>(std::move(frame)));
    const SimTime now = self->host_.sim().now();
    for (const auto& [message, cb] : batch) {
      ++self->published_;
      if (cb) cb(now);
    }
  });
}

void NaradaClient::publish(jms::Message message, SendCallback on_sent) {
  // JMS provider stamps headers on send.
  message.message_id = "ID:" + std::to_string(local().node) + "-" +
                       std::to_string(local().port) + "-" +
                       std::to_string(next_message_seq_++);
  message.timestamp = host_.sim().now();
  auto shared = jms::share(std::move(message));
  const std::int64_t bytes = shared->wire_size();

  if (aggregation_size_ > 1) {
    aggregation_buffer_.emplace_back(shared, std::move(on_sent));
    if (static_cast<int>(aggregation_buffer_.size()) >= aggregation_size_) {
      flush_aggregation();
    } else if (aggregation_buffer_.size() == 1) {
      aggregation_flush_ = host_.sim().schedule_after(
          kAggregationFlushDelay,
          [self = shared_from_this()] { self->flush_aggregation(); });
    }
    return;
  }

  // The synchronous half of publish: assemble + serialise on this host's
  // CPU; the call "returns" when that completes.
  const SimTime demand =
      costs::kClientSendBase +
      static_cast<SimTime>(static_cast<double>(bytes) *
                           costs::kSerializePerByteNs);
  host_.cpu().execute(demand, [self = shared_from_this(), shared,
                               on_sent = std::move(on_sent)] {
    auto frame = std::make_shared<const Frame>(Frame{
        FrameKind::kPublish, shared->destination, {}, shared, -1,
        self->local()});
    self->send_frame(std::move(frame));
    ++self->published_;
    if (on_sent) on_sent(self->host_.sim().now());
  });
}

void NaradaClient::acknowledge() {
  host_.cpu().charge(costs::kClientAckCost);
  auto frame = std::make_shared<const Frame>(Frame{
      FrameKind::kClientAck, subscribed_topic_, {}, nullptr, -1, local()});
  send_frame(std::move(frame));
}

void NaradaClient::on_frame(const net::Datagram& datagram) {
  if (!datagram.payload.has_value()) return;
  const auto* maybe = std::any_cast<FramePtr>(&datagram.payload);
  if (maybe == nullptr || !*maybe) return;
  const FramePtr& frame = *maybe;

  if (frame->kind == FrameKind::kDeliver && frame->topic == "$welcome") {
    if (!link_.ready()) {
      const bool was_reconnect = link_.established();
      // Re-establish broker-side state lost in the crash before flushing
      // anything the application published during the outage.
      if (was_reconnect && has_subscription_) resubscribe();
      flush_backlog();
      // Close the disconnection gap: once resubscribed, ask the (possibly
      // new) broker to replay what we missed since our cursors.
      if (was_reconnect && replay_enabled_ && has_subscription_) {
        schedule_backfill();
      }
    }
    return;
  }
  if (frame->kind == FrameKind::kDeliver) {
    if (replay_enabled_ && frame->history_seq > 0 &&
        !track_replay_delivery(frame)) {
      return;  // duplicate of a sequence the replay layer already delivered
    }
    handle_deliver(frame, host_.sim().now());
  } else if (frame->kind == FrameKind::kBackfillReply) {
    on_backfill_reply(frame);
  }
}

bool NaradaClient::track_replay_delivery(const FramePtr& frame) {
  auto& cursor = cursors_[frame->origin_broker];
  const std::uint64_t seq = frame->history_seq;
  if (seq <= cursor.last || cursor.ahead.count(seq) > 0) return false;
  if (frame->backfill) {
    // Served from retention: fills a hole behind the live stream.
    cursor.ahead.insert(seq);
    ++backfill_received_;
    backfill_bytes_ += frame_wire_size(*frame);
  } else if (frame->prev_seq <= cursor.last &&
             (frame->prev_seq > 0 || cursor.last == 0)) {
    // Live frame whose chain connects (the previous matching message was
    // seen): advance the watermark directly. prev_seq == 0 means a fresh
    // broker-side subscription chain — that only "connects" when this
    // client is fresh too, otherwise a resubscribe after a crash would
    // silently jump the cursor over the whole disconnection gap.
    cursor.last = seq;
  } else {
    // The previous matching message never arrived — a gap the wire dropped
    // silently. Deliver this frame anyway and ask for a replay.
    cursor.ahead.insert(seq);
    schedule_backfill();
  }
  // Drain anything now contiguous (or stale) out of the ahead set.
  while (!cursor.ahead.empty()) {
    const std::uint64_t front = *cursor.ahead.begin();
    if (front > cursor.last + 1) break;
    cursor.last = std::max(cursor.last, front);
    cursor.ahead.erase(cursor.ahead.begin());
  }
  return true;
}

void NaradaClient::on_backfill_reply(const FramePtr& frame) {
  backfill_pending_ = false;
  bool gap_remains = false;
  for (const BackfillCursor& c : frame->cursors) {
    auto& cursor = cursors_[c.origin];
    // Everything the broker retains up to c.seq was replayed ahead of this
    // reply on the same FIFO link (or evicted — honestly lost either way):
    // advance the watermark past the served window.
    cursor.last = std::max(cursor.last, c.seq);
    while (!cursor.ahead.empty()) {
      const std::uint64_t front = *cursor.ahead.begin();
      if (front > cursor.last + 1) break;
      cursor.last = std::max(cursor.last, front);
      cursor.ahead.erase(cursor.ahead.begin());
    }
    if (!cursor.ahead.empty()) gap_remains = true;
  }
  if (gap_remains && backfill_round_ < kReplayMaxRetries) {
    // Live frames raced past the served window while the reply was in
    // flight; one more bounded round picks up the stragglers.
    ++backfill_round_;
    schedule_backfill();
  } else {
    backfill_round_ = 0;
  }
}

void NaradaClient::schedule_backfill() {
  if (!replay_enabled_ || backfill_pending_) return;
  if (!has_subscription_) return;
  backfill_pending_ = true;
  host_.sim().schedule_after(kReplaySettle, [self = weak_from_this()] {
    if (auto c = self.lock()) c->request_backfill();
  });
}

void NaradaClient::request_backfill() {
  if (!replay_enabled_) return;
  if (!link_.ready()) {
    // The link dropped again while we were settling; the next welcome's
    // resubscribe path schedules a fresh round.
    backfill_pending_ = false;
    return;
  }
  Frame frame;
  frame.kind = FrameKind::kBackfillRequest;
  frame.topic = subscribed_topic_;
  for (const auto& [origin, cursor] : cursors_) {
    frame.cursors.push_back({origin, cursor.last, false});
  }
  send_frame(std::make_shared<const Frame>(std::move(frame)));
}

void NaradaClient::handle_deliver(const FramePtr& frame, SimTime arrived_at) {
  if (!frame->message) return;
  const std::int64_t bytes = frame->message->wire_size();
  SimTime demand =
      costs::kClientReceiveBase +
      static_cast<SimTime>(static_cast<double>(bytes) *
                           costs::kSerializePerByteNs);
  SimTime extra = 0;
  if (ack_mode_ == jms::AcknowledgeMode::kClientAcknowledge) {
    // Session bookkeeping before the listener sees the message, plus the
    // application's acknowledge() round.
    demand += costs::kClientAckCost;
    extra = costs::kClientAckExtraLatency;
  }
  auto self = shared_from_this();
  host_.sim().schedule_after(extra, [self, frame, arrived_at, demand] {
    self->host_.cpu().execute(demand, [self, frame, arrived_at] {
      ++self->received_;
      if (self->listener_) self->listener_(frame->message, arrived_at);
    });
  });
}

}  // namespace gridmon::narada
