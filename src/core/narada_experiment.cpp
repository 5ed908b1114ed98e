// NaradaBrokering port: brokers (single or DBN), generator clients and
// subscriber programs on the Hydra model, optionally with sender-side
// aggregation or behind Web-Services (SOAP) proxies.

#include <algorithm>
#include <deque>
#include <memory>

#include "cluster/costs.hpp"
#include "core/payloads.hpp"
#include "core/run_scaffold.hpp"
#include "gma/webservices.hpp"
#include "narada/client.hpp"
#include "narada/dbn.hpp"

namespace gridmon::core {
namespace {

constexpr const char* kTopic = "powergrid/monitoring";

narada::DbnConfig dbn_config(const NaradaConfig& config) {
  narada::DbnConfig dbn;
  dbn.broker_hosts = config.broker_hosts;
  dbn.transport = config.transport;
  dbn.subscription_aware_routing = config.subscription_aware_routing;
  dbn.replay = config.replay;
  return dbn;
}

class NaradaPort final : public BackendPort {
 public:
  NaradaPort(RunScaffold& run, NaradaConfig config, bool hier)
      : run_(run),
        config_(std::move(config)),
        hier_(hier),
        multi_broker_(config_.broker_hosts.size() > 1),
        dbn_(run.hydra(), dbn_config(config_)) {
    dbn_.start();
    // Generator hosts: the non-broker nodes, minus the single broker's
    // subscriber host. In a DBN generators and subscribers share them ("data
    // were received by the node where they were sent").
    const auto& brokers = config_.broker_hosts;
    for (int h = 0; h < run.hydra().node_count(); ++h) {
      if (std::find(brokers.begin(), brokers.end(), h) == brokers.end()) {
        publisher_hosts_.push_back(h);
      }
    }
    subscriber_host_ = publisher_hosts_.front();
    if (!multi_broker_) publisher_hosts_.erase(publisher_hosts_.begin());
    traits_.server_hosts = config_.broker_hosts;
    traits_.targets.brokers = dbn_.broker_count();
    traits_.sample_bytes =
        cluster::costs::kNaradaMessageBytes + config_.fleet.pad_bytes;
    FaultHooks& hooks = traits_.hooks;
    hooks.set_partition = [this](bool active) {
      // Split the DBN down the middle: publishing brokers (first half)
      // lose the switch path to subscribing brokers (second half).
      const auto& hosts = config_.broker_hosts;
      const std::size_t half = hosts.size() / 2;
      if (half == 0) return;
      for (std::size_t i = 0; i < half; ++i) {
        for (std::size_t j = half; j < hosts.size(); ++j) {
          run_.hydra().lan().set_path_blocked(hosts[i], hosts[j], active);
        }
      }
      if (!active && config_.replay) {
        // Replication repair: brokers pull the frames they missed from
        // peers, so later client backfills find complete retention.
        dbn_.request_peer_backfill();
      }
    };
    hooks.crash_broker = [this](int b) { dbn_.broker(b).crash(); };
    hooks.restart_broker = [this](int b) { dbn_.broker(b).restart(); };
    using enum obs::MemCategory;
    auto stats = [this] { return dbn_.total_stats(); };
    Series& series = traits_.series;
    series.counters = {{"broker_events_received",
                        [stats] { return stats().events_received; }},
                       {"broker_events_delivered",
                        [stats] { return stats().events_delivered; }},
                       {"broker_events_forwarded",
                        [stats] { return stats().events_forwarded; }}};
    series.memory = {kBrokerRouting, kClientRecords, kNetConnections,
                     kKernelSlab};
    if (config_.replay) {
      series.replay = {
          {"backfill_msgs", [stats] { return stats().backfill_msgs; }},
          {"backfill_bytes", [stats] { return stats().backfill_bytes; }}};
    }
  }

  void add_publisher(std::int64_t id) override {
    const int host = publisher_hosts_[static_cast<std::size_t>(id) %
                                      publisher_hosts_.size()];
    const net::Endpoint broker = multi_broker_ ? dbn_.assign_publisher_broker()
                                               : dbn_.broker_endpoint(0);
    auto publisher = client(host, 10000 + id % 50000, broker, {});
    // A batch of 1 leaves aggregation off.
    publisher->enable_aggregation(config_.aggregation_batch);
    if (config_.soap_proxy) {
      soap_publishers_.emplace_back(run_.hydra().host(host), publisher);
    }
    publishers_.push_back(std::move(publisher));
  }

  void connect(std::int64_t id, std::function<void(bool)> on_ready) override {
    publishers_[static_cast<std::size_t>(id)]->connect(std::move(on_ready));
  }

  void publish(Publish p, util::Rng& rng) override {
    auto& sender = *publishers_[static_cast<std::size_t>(p.publisher)];
    const net::Endpoint local = sender.local();
    // The wire size rides as padding on the standard monitoring MapMessage.
    const std::int64_t pad = p.bytes - cluster::costs::kNaradaMessageBytes;
    jms::Message msg = make_generator_message(kTopic, p.publisher, p.seq,
                                              local.node, rng,
                                              std::max<std::int64_t>(pad, 0));
    msg.delivery_mode = config_.delivery_mode;
    // The client stamps "ID:node-port-<n>" with its own counter from 1.
    std::string key = "ID:" + std::to_string(local.node) + "-" +
                      std::to_string(local.port) + "-" +
                      std::to_string(p.seq + 1);
    const obs::TraceKey trace = obs::tracer() ? obs::key_of(key) : 0;
    run_.open(key, {p.before, p.before, trace, std::move(p.segments)});
    auto on_sent = [&run = run_, key, trace](SimTime after) {
      run.sent(key, trace, after);
    };
    if (config_.soap_proxy) {
      // Encoding runs before the client's send, so PRT includes it.
      soap_publishers_[static_cast<std::size_t>(p.publisher)].publish(
          std::move(msg), std::move(on_sent));
    } else {
      sender.publish(std::move(msg), std::move(on_sent));
    }
  }

  void subscribe() override {
    net::ReconnectPolicy policy;
    if (config_.replay && multi_broker_) {
      // Fail-over targets: with replication any broker can serve the
      // subscriber's stream and backfill.
      for (int b = 0; b < dbn_.broker_count(); ++b) {
        policy.fallbacks.push_back(dbn_.broker_endpoint(b));
      }
    }
    if (multi_broker_) {
      // One subscriber per generator node, partitioned by origin with a
      // real selector, attached to the brokers the discovery node assigns.
      std::uint16_t port = 9000;
      for (int host : publisher_hosts_) {
        add_subscriber(host, port++, dbn_.assign_subscriber_broker(), policy,
                       "node=" + std::to_string(host),
                       jms::AcknowledgeMode::kAutoAcknowledge);
      }
    } else {
      // The paper's selector: filters nothing but is really evaluated.
      add_subscriber(subscriber_host_, 9000, dbn_.broker_endpoint(0), policy,
                     hier_ ? "id<1000000" : "id<10000", config_.ack_mode);
    }
  }

  void finish(Results& results) override {
    const narada::BrokerStats stats = dbn_.total_stats();
    results.events_forwarded = stats.events_forwarded;
    for (const auto* clients : {&publishers_, &subscribers_}) {
      for (const auto& client : *clients) {
        results.availability.reconnects += client->link().reconnects();
        results.availability.resubscribes += client->resubscribes();
      }
    }
    // Backfill: client-facing replays and peer replication repair.
    results.availability.backfill_msgs = stats.backfill_msgs;
    results.availability.backfill_bytes = stats.backfill_bytes;
  }

 private:
  std::shared_ptr<narada::NaradaClient> client(
      int host, std::int64_t port, net::Endpoint broker,
      const net::ReconnectPolicy& policy) {
    auto client = narada::NaradaClient::create(
        run_.hydra().host(host), run_.hydra().lan(), run_.hydra().streams(),
        broker, net::Endpoint{host, static_cast<std::uint16_t>(port)},
        config_.transport);
    if (config_.fleet.recovery) client->set_reconnect_policy(policy);
    return client;
  }

  void add_subscriber(int host, std::uint16_t port, net::Endpoint broker,
                      const net::ReconnectPolicy& policy,
                      std::string selector, jms::AcknowledgeMode ack) {
    auto sub = client(host, port, broker, policy);
    if (config_.replay) sub->enable_replay();
    // Decoding runs before the listener, so SRT includes it.
    gma::WsProxySubscriber* proxy =
        config_.soap_proxy
            ? &soap_subscribers_.emplace_back(run_.hydra().host(host), sub)
            : nullptr;
    // The port owns the client and its proxy (a shared capture would be a
    // leaking cycle).
    sub->connect([sub = sub.get(), proxy, selector, ack, &run = run_](bool ok) {
      if (!ok) return;
      auto listener = [&run](const jms::MessagePtr& message, SimTime arrived) {
        run.arrival();
        run.deliver(message->message_id, arrived);
      };
      if (proxy != nullptr) {
        proxy->subscribe(kTopic, selector, std::move(listener));
      } else {
        sub->subscribe(kTopic, selector, ack, std::move(listener));
      }
    });
    subscribers_.push_back(std::move(sub));
  }

  RunScaffold& run_;
  NaradaConfig config_;
  bool hier_;
  bool multi_broker_;
  narada::Dbn dbn_;
  std::vector<int> publisher_hosts_;
  int subscriber_host_ = 0;
  std::vector<std::shared_ptr<narada::NaradaClient>> publishers_;
  std::vector<std::shared_ptr<narada::NaradaClient>> subscribers_;
  // One per client when `soap_proxy` is set; a deque keeps the
  // subscribers' addresses stable for their delivery callbacks.
  std::vector<gma::WsProxyPublisher> soap_publishers_;
  std::deque<gma::WsProxySubscriber> soap_subscribers_;
};

}  // namespace

std::unique_ptr<BackendPort> make_narada_port(RunScaffold& run,
                                              NaradaConfig config, bool hier) {
  return std::make_unique<NaradaPort>(run, std::move(config), hier);
}

Results run_narada_experiment(const NaradaConfig& config) {
  cluster::HydraConfig hydra;
  if (config.transport == narada::TransportKind::kUdp) {
    hydra.lan.datagram_loss = cluster::costs::kUdpLossProbability;
  }
  RunScaffold run(config, config.faults, config.fleet.generators, hydra);
  NaradaPort port(run, config, /*hier=*/false);
  return run_fleet(run, port, config.fleet);
}

}  // namespace gridmon::core
