// R-GMA port: registry/producer/consumer services, PrimaryProducer clients
// inserting a row per period (§III.F), and subscriber programs polling a
// Consumer, optionally through a Secondary Producer (Fig 10).

#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "core/payloads.hpp"
#include "core/run_scaffold.hpp"
#include "rgma/api.hpp"
#include "rgma/network.hpp"
#include "rgma/secondary_producer.hpp"
#include "util/log.hpp"

namespace gridmon::core {
namespace {

constexpr const char* kTable = "generators";
constexpr const char* kSecondaryTable = "generators_sp";

/// Recovery (`fleet.recovery`): services renew their registrations this
/// often (re-registering after a registry wipe), and a subscriber whose
/// consumer was refused or lost re-creates it after this long.
constexpr SimTime kRenewalPeriod = units::seconds(20);
constexpr SimTime kConsumerRetry = units::seconds(2);

/// Ledger key of row (id, seq).
[[nodiscard]] std::string row_key(std::int64_t id, std::int64_t seq) {
  return std::to_string(id * 1'000'000'000 + seq);
}

/// The subscriber program: polls the Consumer every rgma::kPollPeriod (up
/// to 100 ms of measurement quantisation, as the paper notes).
class Subscriber {
 public:
  Subscriber(RunScaffold& run, int host, net::HttpClient& http,
             net::Endpoint service, int id, std::string query,
             const RgmaConfig& config)
      : run_(run),
        consumer_(run.hydra().host(host), http, service, id, std::move(query)),
        create_retry_(config.fleet.recovery ? kConsumerRetry : 0) {
    if (create_retry_ > 0) consumer_.enable_retry(create_retry_);
    // Reconnect backfill: after each re-create, replay the poll gap from
    // producer history; rows already delivered miss the ledger.
    if (config.replay) {
      consumer_.enable_replay(
          [this](std::vector<rgma::Tuple> tuples, SimTime issued) {
            process(tuples, issued, "backfill");
          });
    }
  }

  void start() {
    consumer_.create([this](bool ok) {
      if (!ok) {
        GRIDMON_WARN("rgma.subscriber") << "consumer creation refused";
        if (create_retry_ > 0) {
          run_.sim().schedule_after(create_retry_, [this] { start(); });
        }
        return;
      }
      if (timer_.active()) return;
      timer_ = sim::PeriodicTimer(run_.sim(),
                                  run_.sim().now() + rgma::kPollPeriod,
                                  rgma::kPollPeriod, [this] { poll(); });
    });
  }

  [[nodiscard]] const rgma::Consumer& consumer() const { return consumer_; }

 private:
  void poll() {
    if (polling_) return;  // the previous poll has not returned yet
    polling_ = true;
    consumer_.poll([this](std::vector<rgma::Tuple> tuples,
                          SimTime before_receiving) {
      polling_ = false;
      process(tuples, before_receiving, "recv");
    });
  }

  void process(const std::vector<rgma::Tuple>& tuples,
               SimTime before_receiving, const char* stage) {
    for (const auto& tuple : tuples) {
      if (tuple.values.size() <= kRowSentColumn) continue;
      const auto* id = std::get_if<std::int64_t>(&tuple.values[kRowIdColumn]);
      const auto* seq =
          std::get_if<std::int64_t>(&tuple.values[kRowSeqColumn]);
      if (id == nullptr || seq == nullptr) continue;
      run_.deliver(row_key(*id, *seq), before_receiving, stage);
    }
  }

  RunScaffold& run_;
  rgma::Consumer consumer_;
  SimTime create_retry_;
  sim::PeriodicTimer timer_;
  bool polling_ = false;
};

class RgmaPort final : public BackendPort {
 public:
  RgmaPort(RunScaffold& run, RgmaConfig config, bool hier)
      : run_(run),
        config_(std::move(config)),
        hier_(hier),
        network_(run.hydra(), network_config(config_)) {
    network_.create_table(generator_table(kTable));
    if (config_.via_secondary_producer) {
      network_.create_table(generator_table(kSecondaryTable));
    }
    if (config_.registry_ttl > 0) {
      network_.registry().set_registration_ttl(config_.registry_ttl);
    }
    // Renewal heartbeats rebuild a wiped registry; the request time-out
    // rescues a half-open one (wedged requests fail with 408).
    auto harden = [this](auto& service) {
      if (config_.fleet.recovery) {
        service.enable_registration_renewal(kRenewalPeriod);
      }
      if (config_.request_timeout > 0) {
        service.set_registry_timeout(config_.request_timeout);
      }
    };
    const int producers = network_.producer_service_count();
    const int consumers = network_.consumer_service_count();
    for (int i = 0; i < producers; ++i) harden(network_.producer_service(i));
    for (int i = 0; i < consumers; ++i) harden(network_.consumer_service(i));
    // Flat fleets share client hosts 4-7 (one HTTP client per host); hier
    // regionals take every host but the server's and the root's.
    const int last = hier_ ? run.hydra().node_count() : 8;
    for (int h = hier_ ? 2 : 4; h < last; ++h) publisher_hosts_.push_back(h);
    traits_.server_hosts = config_.distributed ? std::vector<int>{0, 1, 2, 3}
                                               : std::vector<int>{0};
    traits_.targets.producer_services = producers;
    traits_.targets.consumer_services = consumers;
    traits_.drain = units::seconds(30) + config_.secondary_delay +
                    (config_.via_secondary_producer ? units::seconds(30)
                                                    : SimTime{0});
    traits_.rng_stream = "rgma.generator";
    traits_.random_first_phase = true;
    FaultHooks& hooks = traits_.hooks;
    auto& registry = network_.registry();
    hooks.set_registry_down = [&registry](bool down) {
      down ? registry.crash() : registry.restart();
    };
    hooks.set_producer_servlet_down = [this](int i, bool down) {
      auto& service = network_.producer_service(i);
      down ? service.crash() : service.restart();
    };
    hooks.set_consumer_servlet_down = [this](int i, bool down) {
      auto& service = network_.consumer_service(i);
      down ? service.crash() : service.restart();
    };
    hooks.set_registry_half_open = [&registry](bool half_open) {
      registry.set_half_open(half_open);
    };
    using enum obs::MemCategory;
    auto pp = [this] { return network_.total_producer_stats(); };
    auto cs = [this] { return network_.total_consumer_stats(); };
    Series& series = traits_.series;
    series.counters = {
        {"pp_tuples_streamed", [pp] { return pp().tuples_streamed; }},
        {"pp_batches_sent", [pp] { return pp().batches_sent; }},
        {"cs_batches_received", [cs] { return cs().batches_received; }},
        {"cs_tuples_matched", [cs] { return cs().tuples_matched; }},
        {"cs_polls_served", [cs] { return cs().polls_served; }}};
    series.memory = {kRgmaTuples, kNetConnections, kKernelSlab,
                     kPredicateCache};
    if (config_.replay) {
      series.replay = {
          {"backfill_msgs", [this] { return backfill().backfill_msgs; }},
          {"backfill_bytes", [this] { return backfill().backfill_bytes; }}};
    }
  }

  void add_publisher(std::int64_t id) override {
    const auto index = static_cast<std::size_t>(id);
    const int host = publisher_hosts_[index % publisher_hosts_.size()];
    net::HttpClient* http = &http_[index % http_.size()];
    if (hier_) {  // each regional owns its HTTP client
      const auto port = static_cast<std::uint16_t>(
          20000 + static_cast<std::uint16_t>(id));
      http = &own_http_.emplace_back(run_.hydra().streams(),
                                     net::Endpoint{host, port});
    }
    auto& producer = producers_.emplace_back(
        run_.hydra().host(host), *http, network_.assign_producer_service(),
        static_cast<int>(id), kTable);
    if (config_.fleet.recovery) {
      producer.enable_redeclare();
    }
  }

  void connect(std::int64_t id, std::function<void(bool)> on_ready) override {
    producers_[static_cast<std::size_t>(id)].declare(std::move(on_ready));
  }

  void publish(Publish p, util::Rng& rng) override {
    // Rows are fixed-size (the paper's 16-column schema): a hier frame's
    // aggregation shows up as 1/batch the insert count, not as bytes.
    auto row = make_generator_row(p.publisher, p.seq, p.before, rng);
    std::string key = row_key(p.publisher, p.seq);
    const obs::TraceKey trace = obs::key_of(p.publisher, p.seq);
    run_.open(key, {p.before, p.before, trace, std::move(p.segments)});
    producers_[static_cast<std::size_t>(p.publisher)].insert(
        std::move(row), [&run = run_, key, trace](bool ok, SimTime after) {
          run.inserted(key, trace, ok, after);
        });
  }

  void subscribe() override {
    auto& streams = run_.hydra().streams();
    if (hier_) {
      http_.emplace_back(streams, net::Endpoint{1, 21000});
    } else {
      for (int host : publisher_hosts_) {
        http_.emplace_back(streams, net::Endpoint{host, 20000});
      }
    }
    // Secondary Producer chain (Fig 10): generators → PP("generators") →
    // SP(deliberate delay) → PP("generators_sp") → Consumer → subscriber.
    if (config_.via_secondary_producer) {
      const int sp_host = config_.distributed ? 1 : 0;
      auto& http = own_http_.emplace_back(streams,
                                          net::Endpoint{sp_host, 21000});
      secondary_.emplace(run_.hydra().host(sp_host), http,
                         network_.assign_consumer_service(),
                         network_.assign_producer_service(), 900000, kTable,
                         kSecondaryTable, config_.secondary_delay);
      run_.sim().schedule_at(RunScaffold::kStartTime / 2,
                             [this] { secondary_->start(nullptr); });
    }
    // One subscriber per consumer service, partitioned by generator id so
    // every row is delivered exactly once.
    const std::string table =
        config_.via_secondary_producer ? kSecondaryTable : kTable;
    const int services = network_.consumer_service_count();
    for (int c = 0; c < services; ++c) {
      std::string query = "SELECT * FROM " + table;
      if (services > 1) {
        const int share = config_.fleet.generators / services + 1;
        query += " WHERE id >= " + std::to_string(c * share) + " AND id < " +
                 std::to_string((c + 1) * share);
      } else {
        query += " WHERE id < 1000000";  // the paper-style no-op filter
      }
      const auto index = static_cast<std::size_t>(c);
      const int host =
          hier_ ? 1 : publisher_hosts_[index % publisher_hosts_.size()];
      auto& sub = subscribers_.emplace_back(
          run_, host, http_[index % http_.size()],
          network_.consumer_service(c).endpoint(), 800000 + c,
          std::move(query), config_);
      run_.sim().schedule_at(RunScaffold::kStartTime / 2,
                             [&sub] { sub.start(); });
    }
  }

  void finish(Results& results) override {
    Availability& availability = results.availability;
    availability.reregistrations = network_.registry().reregistrations();
    for (const auto& producer : producers_) {
      availability.reregistrations += producer.redeclares();
    }
    for (const auto& sub : subscribers_) {
      availability.resubscribes += sub.consumer().recreates();
    }
    availability.backfill_msgs += backfill().backfill_msgs;
    availability.backfill_bytes += backfill().backfill_bytes;
  }

 private:
  static rgma::RgmaNetworkConfig network_config(const RgmaConfig& config) {
    rgma::RgmaNetworkConfig net;  // single server: all services on host 0
    if (config.distributed) {     // the paper's 2 producer + 2 consumer nodes
      net.producer_hosts = {0, 1};
      net.consumer_hosts = {2, 3};
    }
    net.secure = config.secure;
    net.legacy_stream_api = config.legacy_stream_api;
    return net;
  }

  /// Tuples and bytes the subscribers' history queries replayed.
  [[nodiscard]] Availability backfill() const {
    Availability sum;
    for (const auto& sub : subscribers_) {
      sum.backfill_msgs += sub.consumer().backfill_tuples();
      sum.backfill_bytes += sub.consumer().backfill_bytes();
    }
    return sum;
  }

  RunScaffold& run_;
  RgmaConfig config_;
  bool hier_;
  rgma::RgmaNetwork network_;
  std::vector<int> publisher_hosts_;
  std::deque<net::HttpClient> http_;      ///< shared by the client hosts
  std::deque<net::HttpClient> own_http_;  ///< the SP's and each regional's
  std::optional<rgma::SecondaryProducer> secondary_;
  std::deque<Subscriber> subscribers_;
  std::deque<rgma::PrimaryProducer> producers_;
};

}  // namespace

std::unique_ptr<BackendPort> make_rgma_port(RunScaffold& run,
                                            RgmaConfig config, bool hier) {
  return std::make_unique<RgmaPort>(run, std::move(config), hier);
}

Results run_rgma_experiment(const RgmaConfig& config) {
  RunScaffold run(config, config.faults, config.fleet.generators);
  RgmaPort port(run, config, /*hier=*/false);
  return run_fleet(run, port, config.fleet);
}

}  // namespace gridmon::core
