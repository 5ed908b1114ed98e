// MQTT port, the modern baseline: one MqttBroker on host 0, generator
// clients publishing samples at QoS 0/1/2, and one monitoring subscriber on
// host 1 holding a 'powergrid/#' wildcard subscription.

#include <memory>
#include <string>

#include "cluster/costs.hpp"
#include "core/run_scaffold.hpp"
#include "mqtt/broker.hpp"
#include "mqtt/client.hpp"

namespace gridmon::core {
namespace {

constexpr int kBrokerHost = 0;
constexpr int kSubscriberHost = 1;

class MqttPort final : public BackendPort {
 public:
  MqttPort(RunScaffold& run, MqttConfig config, bool hier)
      : run_(run),
        config_(std::move(config)),
        hier_(hier),
        endpoint_{kBrokerHost, 1883},
        broker_(run.hydra().host(endpoint_.node), run.hydra().lan(),
                run.hydra().streams(),
                {.endpoint = endpoint_}) {
    broker_.start();
    // The subscriber gets the first non-broker host; publishers the rest.
    for (int h = kSubscriberHost + 1; h < run.hydra().node_count(); ++h) {
      publisher_hosts_.push_back(h);
    }
    traits_.server_hosts = {kBrokerHost};
    traits_.targets.brokers = 1;
    // A gateway batches `gateway_batch` sensors into one larger PUBLISH.
    traits_.sample_bytes =
        (cluster::costs::kMqttSampleBytes + config_.fleet.pad_bytes) *
        config_.gateway_batch;
    // A single broker: partitions are a no-op.
    traits_.hooks.crash_broker = [this](int) { broker_.crash(); };
    traits_.hooks.restart_broker = [this](int) { broker_.restart(); };
    using enum obs::MemCategory;
    const mqtt::MqttBrokerStats& stats = broker_.stats();
    Series& series = traits_.series;
    series.counters = {{"broker_publishes_received",
                        [&stats] { return stats.publishes_received; }},
                       {"broker_publishes_delivered",
                        [&stats] { return stats.publishes_delivered; }},
                       {"broker_retransmissions",
                        [&stats] { return stats.retransmissions; }}};
    series.memory = {kBrokerRouting, kClientRecords, kNetConnections,
                     kKernelSlab, kMqttSubIndex};
    if (config_.replay) {
      series.replay = {
          {"backfill_msgs", [&stats] { return stats.backfill_msgs; }},
          {"backfill_bytes", [&stats] { return stats.backfill_bytes; }},
          {"queue_dropped", [&stats] { return stats.queue_dropped; }}};
    }
  }

  void add_publisher(std::int64_t id) override {
    const int host = publisher_hosts_[static_cast<std::size_t>(id) %
                                      publisher_hosts_.size()];
    publishers_.push_back(
        client(host, 10000 + id % 50000,
               client_options((hier_ ? "regional-" : "gen-") +
                              std::to_string(id))));
  }

  void connect(std::int64_t id, std::function<void(bool)> on_ready) override {
    publishers_[static_cast<std::size_t>(id)]->connect(std::move(on_ready));
  }

  void publish(Publish p, util::Rng&) override {
    auto& sender = *publishers_[static_cast<std::size_t>(p.publisher)];
    const std::string id = std::to_string(p.publisher);
    const std::string topic =
        p.topic.empty() ? "powergrid/feeder" +
                              std::to_string(p.publisher % 16) + "/gen" + id
                        : std::string(p.topic);
    std::string key = hier_ ? "hier-" + id + "-" + std::to_string(p.seq)
                            : "ID:" + std::to_string(sender.local().node) +
                                  "-" + std::to_string(sender.local().port) +
                                  "-" + std::to_string(p.seq);
    const obs::TraceKey trace = obs::tracer() ? obs::key_of(key) : 0;
    run_.open(key, {p.before, p.before, trace, std::move(p.segments)});
    const int qos =
        config_.mixed_qos ? static_cast<int>(p.publisher % 3) : config_.qos;
    sender.publish(topic, p.bytes, qos, key,
                   [&run = run_, key, trace](SimTime after) {
                     run.sent(key, trace, after);
                   });
  }

  void subscribe() override {
    // One wildcard subscription covers the whole fleet.
    const int qos = config_.subscriber_qos >= 0
                        ? config_.subscriber_qos
                        : (config_.mixed_qos ? 2 : config_.qos);
    subscriber_ = client(kSubscriberHost, 9000,
                         client_options(hier_ ? "root" : "monitor"));
    subscriber_->connect([sub = subscriber_.get(), qos, &run = run_](bool ok) {
      if (!ok) return;
      sub->subscribe("powergrid/#", qos,
                     [&run](const mqtt::PacketPtr& packet, SimTime arrived) {
                       run.arrival();
                       run.deliver(packet->message_id, arrived);
                     });
    });
  }

  void finish(Results& results) override {
    for (const auto& client : publishers_) {
      results.availability.reconnects += client->link().reconnects();
      results.availability.resubscribes += client->resubscribes();
    }
    results.availability.reconnects += subscriber_->link().reconnects();
    results.availability.resubscribes += subscriber_->resubscribes();
    // Offline-queue drains at session resumption are MQTT's backfill path.
    results.availability.backfill_msgs = broker_.stats().backfill_msgs;
    results.availability.backfill_bytes = broker_.stats().backfill_bytes;
  }

 private:
  mqtt::MqttClientOptions client_options(std::string client_id) const {
    mqtt::MqttClientOptions options;
    options.client_id = std::move(client_id);
    options.clean_session = config_.clean_session;
    options.keep_alive = config_.keep_alive;
    return options;
  }

  std::shared_ptr<mqtt::MqttClient> client(int host, std::int64_t port,
                                           mqtt::MqttClientOptions options) {
    auto client = mqtt::MqttClient::create(
        run_.hydra().host(host), run_.hydra().streams(), endpoint_,
        net::Endpoint{host, static_cast<std::uint16_t>(port)},
        std::move(options));
    if (config_.fleet.recovery) client->set_reconnect_policy({});
    return client;
  }

  RunScaffold& run_;
  MqttConfig config_;
  bool hier_;
  net::Endpoint endpoint_;
  mqtt::MqttBroker broker_;
  std::vector<int> publisher_hosts_;
  std::vector<std::shared_ptr<mqtt::MqttClient>> publishers_;
  std::shared_ptr<mqtt::MqttClient> subscriber_;
};

}  // namespace

std::unique_ptr<BackendPort> make_mqtt_port(RunScaffold& run,
                                            MqttConfig config, bool hier) {
  return std::make_unique<MqttPort>(run, std::move(config), hier);
}

Results run_mqtt_experiment(const MqttConfig& config) {
  RunScaffold run(config, config.faults, config.fleet.generators);
  MqttPort port(run, config, /*hier=*/false);
  return run_fleet(run, port, config.fleet);
}

}  // namespace gridmon::core
