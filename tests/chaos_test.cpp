// Chaos-engineering surface: FaultPlan schedules, the FaultInjector's
// anchor/window resolution, AvailabilityTracker accounting, registry
// re-mediation after a producer-container restart, the shared client
// link's reconnect schedule on both stream clients, and end-to-end
// recovery-vs-no-recovery contrasts for both middlewares.
#include "core/faults.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/hydra.hpp"
#include "core/campaign.hpp"
#include "core/experiment.hpp"
#include "core/payloads.hpp"
#include "core/scenarios.hpp"
#include "mqtt/broker.hpp"
#include "mqtt/client.hpp"
#include "narada/client.hpp"
#include "narada/dbn.hpp"
#include "net/client_link.hpp"
#include "rgma/api.hpp"
#include "rgma/network.hpp"

namespace gridmon::core {
namespace {

TEST(FaultPlan, BuildersChainAndRecordFields) {
  FaultPlan plan;
  plan.nic_down(units::seconds(5), 3, units::seconds(2))
      .loss_burst(units::seconds(1), 0.25, units::seconds(4))
      .broker_crash(units::seconds(9), 1, units::seconds(10));
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kNicDown);
  EXPECT_EQ(plan.events[0].target, 3);
  EXPECT_EQ(plan.events[0].duration, units::seconds(2));
  EXPECT_EQ(plan.events[1].kind, FaultKind::kLossBurst);
  EXPECT_DOUBLE_EQ(plan.events[1].param, 0.25);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kBrokerCrash);
  EXPECT_EQ(plan.events[2].anchor, FaultAnchor::kSteady);
  EXPECT_FALSE(plan.empty());
}

// Bad fault input is an error at setup on every backend and worker count:
// FaultPlan::check_targets rejects impossible numbers and targets the
// topology does not have. Before, an out-of-range broker segfaulted in
// Broker::crash(), a missing servlet counted a fault that never fired, and
// only text plans were range-checked.
TEST(FaultPlan, RejectsOutOfRangeEventsAtSetup) {
  constexpr FaultAnchor kSteady = FaultAnchor::kSteady;
  struct Case {
    const char* backend;
    FaultEvent event;  // at, kind, anchor, target, duration, param
  };
  const Case cases[] = {
      {"narada", {1000, FaultKind::kBrokerCrash, kSteady, 3, 5000, 0}},
      {"narada", {1000, FaultKind::kNicDown, kSteady, 8, 5000, 0}},
      {"mqtt", {1000, FaultKind::kBrokerCrash, kSteady, 1, 5000, 0}},
      {"rgma",
       {1000, FaultKind::kProducerServletRestart, kSteady, 7, 5000, 0}},
      {"rgma",
       {1000, FaultKind::kConsumerServletRestart, kSteady, -1, 5000, 0}},
      {"rgma", {1000, FaultKind::kBrokerCrash, kSteady, 0, 5000, 0}},
      // The target is valid: only the negative duration is wrong.
      {"narada", {-5000, FaultKind::kBrokerCrash, kSteady, 0, -1, 0}},
      {"rgma",
       {-1000, FaultKind::kRegistryRestart, FaultAnchor::kRunStart, -1,
        5000, 0}},  // before t=0
      {"mqtt", {1000, FaultKind::kLossBurst, kSteady, -1, 5000, 1.5}},
      {"mqtt", {1000, FaultKind::kLossBurst, kSteady, -1, 5000, -0.1}},
  };
  auto spec = [](const Case& c) {
    const FaultPlan faults{{c.event}};
    ScenarioSpec spec{faults.serialise(), "bad fault", NaradaConfig{}};
    if (std::string(c.backend) == "narada") {
      NaradaConfig config = scenarios::narada_single(20);
      config.faults = faults;
      spec.config = config;
    } else if (std::string(c.backend) == "mqtt") {
      MqttConfig config = scenarios::mqtt_single(20);
      config.faults = faults;
      spec.config = config;
    } else {
      RgmaConfig config = scenarios::rgma_single(20);
      config.faults = faults;
      spec.config = config;
    }
    return spec;
  };
  for (const Case& c : cases) {
    for (int jobs : {1, 4}) {
      CampaignOptions options;
      options.jobs = jobs;
      options.duration = units::minutes(1);
      try {
        CampaignRunner runner(options);
        runner.add(spec(c));
        (void)runner.run();
        ADD_FAILURE() << "accepted " << FaultPlan{{c.event}}.serialise()
                      << " at jobs=" << jobs;
      } catch (const std::invalid_argument& error) {
        // The error names the event.
        EXPECT_NE(std::string(error.what()).find(to_string(c.event.kind)),
                  std::string::npos)
            << error.what();
      }
    }
  }
}

TEST(FaultInjector, ResolvesAnchorsAndSortsWindows) {
  sim::Simulation sim;
  FaultPlan plan;
  // kSteady event armed at steady+5s; kRunStart event at absolute 1s.
  plan.nic_down(units::seconds(5), 3, units::seconds(2));
  plan.loss_burst(units::seconds(1), 0.5, units::seconds(3),
                  FaultAnchor::kRunStart);
  // An instantaneous event (duration 0) fires once and opens no window.
  plan.nic_down(units::seconds(2), 1, 0, FaultAnchor::kRunStart);

  std::vector<std::string> trace;
  FaultHooks hooks;
  hooks.set_nic = [&](int node, bool down) {
    trace.push_back((down ? "nic_down:" : "nic_up:") + std::to_string(node));
  };
  hooks.set_loss = [&](double p, bool active) {
    trace.push_back((active ? "loss_on:" : "loss_off:") + std::to_string(p));
  };

  FaultInjector injector(sim, plan, hooks);
  injector.arm(units::seconds(10));

  ASSERT_EQ(injector.windows().size(), 2u);  // nic_down:1 is instantaneous
  EXPECT_EQ(injector.windows()[0].begin, units::seconds(1));
  EXPECT_EQ(injector.windows()[0].end, units::seconds(4));
  EXPECT_EQ(injector.windows()[1].begin, units::seconds(15));
  EXPECT_EQ(injector.windows()[1].end, units::seconds(17));

  sim.run();
  EXPECT_EQ(injector.injected(), 3u);
  const std::vector<std::string> expected = {
      "loss_on:0.500000", "nic_down:1", "loss_off:0.500000", "nic_down:3",
      "nic_up:3"};
  EXPECT_EQ(trace, expected);
}

TEST(FaultInjector, UnsetHooksAreNoOps) {
  sim::Simulation sim;
  FaultPlan plan;
  plan.broker_crash(units::seconds(1), 0, units::seconds(5));
  plan.registry_restart(units::seconds(2), units::seconds(3));
  FaultInjector injector(sim, plan, FaultHooks{});  // nothing wired
  injector.arm(0);
  sim.run();  // must not crash
  EXPECT_EQ(injector.injected(), 2u);
  EXPECT_EQ(injector.windows().size(), 2u);
}

TEST(AvailabilityTracker, DowntimeAndRecoveryPerWindow) {
  AvailabilityTracker tracker;
  tracker.set_windows({{units::seconds(10), units::seconds(20)},
                       {units::seconds(40), units::seconds(50)}});
  tracker.on_delivery(units::seconds(5));   // pre-fault: no effect
  tracker.on_delivery(units::seconds(25));  // recovers window 1 (15 s out)
  tracker.on_delivery(units::seconds(41));  // recovers window 2 (1 s out)
  const Availability avail = tracker.finalise(units::seconds(60));
  EXPECT_DOUBLE_EQ(avail.downtime_ms, 16000.0);
  EXPECT_DOUBLE_EQ(avail.time_to_recover_ms, 15000.0);
}

TEST(AvailabilityTracker, UnrecoveredWindowClampsToHorizon) {
  AvailabilityTracker tracker;
  tracker.set_windows({{units::seconds(10), units::seconds(20)}});
  tracker.on_delivery(units::seconds(5));  // only a pre-fault delivery
  const Availability avail = tracker.finalise(units::seconds(60));
  EXPECT_DOUBLE_EQ(avail.time_to_recover_ms, 50000.0);
  EXPECT_DOUBLE_EQ(avail.downtime_ms, 50000.0);
}

TEST(AvailabilityTracker, LossClassification) {
  AvailabilityTracker tracker;
  tracker.set_windows({{units::seconds(10), units::seconds(20)},
                       {units::seconds(40), units::seconds(50)}});
  tracker.classify_loss(units::seconds(5));   // before any fault: unclassified
  tracker.classify_loss(units::seconds(12));  // inside window 1
  tracker.classify_loss(units::seconds(45));  // inside window 2
  tracker.classify_loss(units::seconds(25));  // between windows
  tracker.classify_loss(units::seconds(55));  // after the last window
  const Availability avail = tracker.finalise(units::seconds(60));
  EXPECT_EQ(avail.lost_in_window, 2u);
  EXPECT_EQ(avail.lost_post_window, 2u);
}

TEST(AvailabilityTracker, EmptyPlanStaysAllZero) {
  AvailabilityTracker tracker;
  tracker.on_delivery(units::seconds(1));
  tracker.classify_loss(units::seconds(2));
  const Availability avail = tracker.finalise(units::seconds(60));
  EXPECT_DOUBLE_EQ(avail.downtime_ms, 0.0);
  EXPECT_DOUBLE_EQ(avail.time_to_recover_ms, 0.0);
  EXPECT_EQ(avail.lost_in_window, 0u);
  EXPECT_EQ(avail.lost_post_window, 0u);
}

// A producer container restart wipes its attachments; the client's explicit
// re-declare must reach the registry's upsert path and re-run mediation so
// streaming re-forms (the renewal heartbeat alone only refreshes the lease).
TEST(ChaosRgma, ReDeclareAfterContainerRestartRemediates) {
  cluster::Hydra hydra{cluster::HydraConfig{.seed = 21}};
  rgma::RgmaNetwork network(hydra, rgma::RgmaNetworkConfig{});
  network.create_table(generator_table("generators"));
  net::HttpClient http(hydra.streams(), net::Endpoint{4, 20000});

  rgma::Consumer consumer(hydra.host(4), http,
                          network.assign_consumer_service(), 100,
                          "SELECT * FROM generators WHERE id < 1000000");
  consumer.create(nullptr);
  rgma::PrimaryProducer producer(hydra.host(4), http,
                                 network.assign_producer_service(), 1,
                                 "generators");
  producer.declare(nullptr);

  auto rng = hydra.sim().rng_stream("test");
  auto& sim = hydra.sim();
  int inserted_ok = 0;
  sim.schedule_at(units::seconds(10), [&] {
    for (int i = 0; i < 3; ++i) {
      producer.insert(make_generator_row(1, i, sim.now(), rng),
                      [&](bool ok, SimTime) { inserted_ok += ok ? 1 : 0; });
    }
  });

  bool redeclared_ok = false;
  sim.schedule_at(units::seconds(20), [&] {
    network.producer_service(0).crash();
    EXPECT_TRUE(network.producer_service(0).down());
  });
  sim.schedule_at(units::seconds(21),
                  [&] { network.producer_service(0).restart(); });
  sim.schedule_at(units::seconds(22), [&] {
    producer.declare([&](bool ok) { redeclared_ok = ok; });
  });
  sim.schedule_at(units::seconds(35), [&] {
    for (int i = 3; i < 6; ++i) {
      producer.insert(make_generator_row(1, i, sim.now(), rng),
                      [&](bool ok, SimTime) { inserted_ok += ok ? 1 : 0; });
    }
  });

  std::size_t received = 0;
  sim::PeriodicTimer poller(
      sim, units::seconds(1), units::milliseconds(200), [&] {
        consumer.poll([&](std::vector<rgma::Tuple> tuples, SimTime) {
          received += tuples.size();
        });
      });
  sim.run_until(units::seconds(60));

  EXPECT_EQ(inserted_ok, 6);
  EXPECT_TRUE(redeclared_ok);
  // The post-restart inserts only reach the consumer if the registry's
  // upsert re-mediated and re-formed the producer-side attachment.
  EXPECT_EQ(received, 6u);
}

TEST(ChaosRgma, RegistryCrashReturns503UntilRestart) {
  cluster::Hydra hydra{cluster::HydraConfig{.seed = 21}};
  rgma::RgmaNetwork network(hydra, rgma::RgmaNetworkConfig{});
  network.create_table(generator_table("generators"));
  net::HttpClient http(hydra.streams(), net::Endpoint{4, 20000});
  rgma::PrimaryProducer producer(hydra.host(4), http,
                                 network.assign_producer_service(), 1,
                                 "generators");
  auto& sim = hydra.sim();

  network.registry().crash();
  EXPECT_TRUE(network.registry().down());
  network.registry().crash();  // idempotent
  bool first_ok = true;
  producer.declare([&](bool ok) { first_ok = ok; });
  sim.run_until(units::seconds(5));
  // The producer service itself is up; it accepted the producer even though
  // its registry registration went nowhere. What matters here is that the
  // registry wiped its soft state and re-accepts after restart.
  network.registry().restart();
  EXPECT_FALSE(network.registry().down());
  bool second_ok = false;
  producer.declare([&](bool ok) { second_ok = ok; });
  sim.run_until(units::seconds(10));
  EXPECT_TRUE(second_ok);
  (void)first_ok;
}

/// The HTTP status one bare request with `body` draws from `service`, two
/// virtual seconds later (the client API hands a poll's or a one-time
/// query's caller only tuples).
template <typename Body>
int status_of(cluster::Hydra& hydra, net::HttpClient& http,
              net::Endpoint service, Body body) {
  int status = 0;
  net::HttpRequest req;
  req.body_bytes = 64;
  req.body =
      std::shared_ptr<const Body>(std::make_shared<Body>(std::move(body)));
  http.request(service, std::move(req), [&status](const net::HttpResponse& r) {
    status = r.status;
  });
  hydra.sim().run_until(hydra.sim().now() + units::seconds(2));
  return status;
}

TEST(ChaosRgma, ProducerCrashReturns503UntilRestart) {
  cluster::Hydra hydra{cluster::HydraConfig{.seed = 21}};
  rgma::RgmaNetwork network(hydra, rgma::RgmaNetworkConfig{});
  network.create_table(generator_table("generators"));
  net::HttpClient http(hydra.streams(), net::Endpoint{4, 20000});
  rgma::PrimaryProducer producer(hydra.host(4), http,
                                 network.assign_producer_service(), 1,
                                 "generators");
  auto& sim = hydra.sim();
  auto rng = sim.rng_stream("test");
  int declared = -1;
  int inserted = -1;
  auto declare_and_insert = [&] {
    producer.declare([&](bool ok) { declared = ok; });
    sim.run_until(sim.now() + units::seconds(2));
    producer.insert(make_generator_row(1, 0, sim.now(), rng),
                    [&](bool ok, SimTime) { inserted = ok; });
    sim.run_until(sim.now() + units::seconds(2));
  };

  network.producer_service(0).crash();
  EXPECT_TRUE(network.producer_service(0).down());
  declare_and_insert();
  EXPECT_EQ(declared, 0);
  EXPECT_EQ(inserted, 0);
  EXPECT_EQ(status_of(hydra, http, network.producer_service(0).endpoint(),
                      rgma::CreateProducerRequest{2, "generators"}),
            503);

  network.producer_service(0).restart();
  EXPECT_FALSE(network.producer_service(0).down());
  declare_and_insert();
  EXPECT_EQ(declared, 1);
  EXPECT_EQ(inserted, 1);
}

TEST(ChaosRgma, ConsumerCrashReturns503UntilRestart) {
  cluster::Hydra hydra{cluster::HydraConfig{.seed = 21}};
  rgma::RgmaNetwork network(hydra, rgma::RgmaNetworkConfig{});
  network.create_table(generator_table("generators"));
  net::HttpClient http(hydra.streams(), net::Endpoint{4, 20000});
  const net::Endpoint service = network.assign_consumer_service();
  rgma::Consumer consumer(hydra.host(4), http, service, 100,
                          "SELECT * FROM generators");
  auto& sim = hydra.sim();
  int created = -1;
  auto create = [&] {
    consumer.create([&](bool ok) { created = ok; });
    sim.run_until(sim.now() + units::seconds(2));
  };
  auto poll = [&] {
    return status_of(hydra, http, service, rgma::PollRequest{100});
  };
  auto one_time = [&] {
    return status_of(hydra, http, service,
                     rgma::OneTimeQueryRequest{"SELECT * FROM generators",
                                               rgma::QueryType::kLatest});
  };

  network.consumer_service(0).crash();
  EXPECT_TRUE(network.consumer_service(0).down());
  create();
  EXPECT_EQ(created, 0);
  EXPECT_EQ(poll(), 503);
  EXPECT_EQ(one_time(), 503);

  network.consumer_service(0).restart();
  EXPECT_FALSE(network.consumer_service(0).down());
  create();
  EXPECT_EQ(created, 1);
  EXPECT_EQ(poll(), 200);
  EXPECT_EQ(one_time(), 200);
}

// --- The shared client link (net::ClientLink) on both stream clients --------

/// One broker on host 0 and one client on host 1, per middleware.
struct NaradaSide {
  std::unique_ptr<narada::Dbn> dbn;
  net::Endpoint start(cluster::Hydra& hydra) {
    narada::DbnConfig config;
    config.broker_hosts = {0};
    dbn = std::make_unique<narada::Dbn>(hydra, config);
    dbn->start();
    return dbn->broker_endpoint(0);
  }
  void crash() { dbn->broker(0).crash(); }
  static std::shared_ptr<narada::NaradaClient> client(cluster::Hydra& hydra,
                                                      net::Endpoint broker) {
    return narada::NaradaClient::create(hydra.host(1), hydra.lan(),
                                        hydra.streams(), broker, {1, 9000},
                                        narada::TransportKind::kTcp);
  }
};

struct MqttSide {
  std::unique_ptr<mqtt::MqttBroker> broker;
  net::Endpoint start(cluster::Hydra& hydra) {
    mqtt::MqttBrokerConfig config;
    config.endpoint = {0, 1883};
    broker = std::make_unique<mqtt::MqttBroker>(hydra.host(0), hydra.lan(),
                                                hydra.streams(), config);
    broker->start();
    return config.endpoint;
  }
  void crash() { broker->crash(); }
  static std::shared_ptr<mqtt::MqttClient> client(cluster::Hydra& hydra,
                                                  net::Endpoint broker) {
    return mqtt::MqttClient::create(hydra.host(1), hydra.streams(), broker,
                                    {1, 9000}, {.client_id = "link"});
  }
};

struct SideNames {
  template <typename Side>
  static std::string GetName(int) {
    return std::is_same_v<Side, NaradaSide> ? "Narada" : "Mqtt";
  }
};

template <typename Side>
class ClientLinkTest : public ::testing::Test {
 protected:
  /// A broker that accepts every connection and closes it before the
  /// handshake, logging each attempt's arrival. The link treats it like a
  /// broker that is still down.
  void dead_listener(net::Endpoint endpoint) {
    hydra_.streams().listen(endpoint, [this, endpoint](
                                          net::StreamConnectionPtr conn) {
      attempts_.push_back({hydra_.sim().now(), endpoint});
      conn->close();
    });
  }

  struct Attempt {
    SimTime at;
    net::Endpoint broker;
  };
  cluster::Hydra hydra_{cluster::HydraConfig{.seed = 11}};
  std::vector<Attempt> attempts_;
};

using Sides = ::testing::Types<NaradaSide, MqttSide>;
TYPED_TEST_SUITE(ClientLinkTest, Sides, SideNames);

constexpr SimTime kCrashAt = units::seconds(5);

TYPED_TEST(ClientLinkTest, AttemptsBackOffFromHalfASecondToEight) {
  TypeParam side;
  const net::Endpoint broker = side.start(this->hydra_);
  auto client = TypeParam::client(this->hydra_, broker);
  client->set_reconnect_policy({});
  std::vector<bool> ready;
  client->connect([&](bool ok) { ready.push_back(ok); });
  this->hydra_.sim().schedule_at(kCrashAt, [&] {
    side.crash();
    this->dead_listener(broker);
  });
  // Six attempts take 23.5 s before jitter and at most 28.2 s with it; the
  // seventh waits at least another 8 s.
  this->hydra_.sim().run_until(kCrashAt + units::seconds(30));

  const std::vector<SimTime> nominal = {
      units::milliseconds(500), units::seconds(1), units::seconds(2),
      units::seconds(4),        units::seconds(8), units::seconds(8)};
  ASSERT_EQ(this->attempts_.size(), nominal.size());
  SimTime previous = kCrashAt;
  int jittered = 0;
  for (std::size_t i = 0; i < nominal.size(); ++i) {
    // Each gap is the jittered delay plus the close and handshake
    // transits, well under a millisecond on the LAN.
    const SimTime gap = this->attempts_[i].at - previous;
    EXPECT_GE(gap, nominal[i]) << "attempt " << i + 1;
    EXPECT_LE(gap, nominal[i] + nominal[i] / 5 + units::milliseconds(1))
        << "attempt " << i + 1;
    if (gap > nominal[i] + units::milliseconds(1)) ++jittered;
    EXPECT_EQ(this->attempts_[i].broker, broker);
    previous = this->attempts_[i].at;
  }
  EXPECT_GT(jittered, 0);
  EXPECT_EQ(ready, std::vector<bool>{true});
  EXPECT_FALSE(client->link().ready());
  EXPECT_EQ(client->link().rehomes(), 0u);
}

TYPED_TEST(ClientLinkTest, CloseBeforeTheHandshakeIsARefusalNeverRetried) {
  const net::Endpoint broker{0, 7000};
  this->dead_listener(broker);
  auto client = TypeParam::client(this->hydra_, broker);
  client->set_reconnect_policy({});
  std::vector<bool> ready;
  client->connect([&](bool ok) { ready.push_back(ok); });
  this->hydra_.sim().run_until(units::seconds(60));

  EXPECT_EQ(ready, std::vector<bool>{false});
  EXPECT_EQ(this->attempts_.size(), 1u);
  EXPECT_TRUE(client->link().refused());
  EXPECT_EQ(client->link().reconnects(), 0u);
}

TYPED_TEST(ClientLinkTest, FallbacksRehomeOnEverySecondAttempt) {
  TypeParam side;
  const net::Endpoint home = side.start(this->hydra_);
  const net::Endpoint first{2, 7000};
  const net::Endpoint second{3, 7000};
  this->dead_listener(first);
  this->dead_listener(second);
  auto client = TypeParam::client(this->hydra_, home);
  client->set_reconnect_policy({.fallbacks = {first, second}});
  client->connect(nullptr);
  this->hydra_.sim().schedule_at(kCrashAt, [&] {
    side.crash();
    this->dead_listener(home);
  });
  this->hydra_.sim().run_until(kCrashAt + units::seconds(30));

  // Attempts 2, 4 and 6 each move on to the next fallback, round-robin.
  const std::vector<net::Endpoint> expected = {home,   first,  first,
                                               second, second, first};
  std::vector<net::Endpoint> tried;
  for (const auto& attempt : this->attempts_) tried.push_back(attempt.broker);
  EXPECT_EQ(tried, expected);
  EXPECT_EQ(client->link().rehomes(), 3u);
  EXPECT_EQ(client->link().broker(), first);
}

TEST(ChaosRgma, RedeclareBacksOffFromOneSecondToTen) {
  std::vector<SimTime> delays;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    delays.push_back(rgma::kRedeclareBackoff.delay(attempt));
  }
  const std::vector<SimTime> expected = {
      units::seconds(1), units::seconds(2),  units::seconds(4),
      units::seconds(8), units::seconds(10), units::seconds(10)};
  EXPECT_EQ(delays, expected);
}

// End-to-end: a broker crash with client recovery must reconnect,
// resubscribe, and lose strictly less than the no-recovery baseline.
TEST(ChaosNarada, BrokerCrashRecoveryBeatsNoRecovery) {
  NaradaConfig config = scenarios::narada_single(64);
  config.duration = units::minutes(1);
  config.seed = 7;
  config.faults.broker_crash(units::seconds(10), 0, units::seconds(5));

  config.fleet.recovery = true;
  const Results with = run_narada_experiment(config);
  config.fleet.recovery = false;
  const Results without = run_narada_experiment(config);

  EXPECT_EQ(with.availability.fault_events, 1u);
  EXPECT_GT(with.availability.reconnects, 0u);
  EXPECT_GE(with.availability.resubscribes, 1u);
  EXPECT_EQ(without.availability.reconnects, 0u);
  // Recovery bounds the outage: TTR well under the horizon, strictly less
  // loss than the baseline that never reconnects.
  EXPECT_LT(with.availability.time_to_recover_ms,
            without.availability.time_to_recover_ms);
  EXPECT_LT(with.metrics.loss_rate(), without.metrics.loss_rate());
  EXPECT_GT(without.availability.lost_post_window, 0u);
}

// End-to-end: a producer-container restart with client recovery re-declares
// and resumes streaming; without recovery the producers stay dead.
TEST(ChaosRgma, ServletRestartRecoveryBeatsNoRecovery) {
  RgmaConfig config = scenarios::rgma_single(40);
  config.duration = units::minutes(2);
  config.seed = 7;
  config.registry_ttl = units::seconds(60);
  config.faults.producer_servlet_restart(units::seconds(10), 0,
                                         units::seconds(10));

  config.fleet.recovery = true;
  const Results with = run_rgma_experiment(config);
  config.fleet.recovery = false;
  const Results without = run_rgma_experiment(config);

  EXPECT_EQ(with.availability.fault_events, 1u);
  EXPECT_GT(with.availability.reregistrations, 0u);
  EXPECT_EQ(without.availability.reregistrations, 0u);
  EXPECT_LT(with.metrics.loss_rate(), without.metrics.loss_rate());
  EXPECT_LT(with.availability.time_to_recover_ms,
            without.availability.time_to_recover_ms);
}

}  // namespace
}  // namespace gridmon::core
