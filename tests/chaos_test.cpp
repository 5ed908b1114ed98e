// Chaos-engineering surface: FaultPlan schedules, the FaultInjector's
// anchor/window resolution, AvailabilityTracker accounting, registry
// re-mediation after a producer-container restart, and end-to-end
// recovery-vs-no-recovery contrasts for both middlewares.
#include "core/faults.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "cluster/hydra.hpp"
#include "core/campaign.hpp"
#include "core/experiment.hpp"
#include "core/payloads.hpp"
#include "core/scenarios.hpp"
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
    FaultEvent event;  // at, kind, anchor, target, target2, duration, param
  };
  const Case cases[] = {
      {"narada", {1000, FaultKind::kBrokerCrash, kSteady, 3, -1, 5000, 0}},
      {"narada", {1000, FaultKind::kNicDown, kSteady, 8, -1, 5000, 0}},
      {"mqtt", {1000, FaultKind::kBrokerCrash, kSteady, 1, -1, 5000, 0}},
      {"mqtt", {1000, FaultKind::kLinkLoss, kSteady, 1, -1, 5000, 0.5}},
      {"rgma",
       {1000, FaultKind::kProducerServletRestart, kSteady, 7, -1, 5000, 0}},
      {"rgma",
       {1000, FaultKind::kConsumerServletRestart, kSteady, -1, -1, 5000, 0}},
      {"rgma", {1000, FaultKind::kBrokerCrash, kSteady, 0, -1, 5000, 0}},
      // The target is valid: only the negative duration is wrong.
      {"narada", {-5000, FaultKind::kBrokerCrash, kSteady, 0, -1, -1, 0}},
      {"rgma",
       {-1000, FaultKind::kRegistryRestart, FaultAnchor::kRunStart, -1, -1,
        5000, 0}},  // before t=0
      {"mqtt", {1000, FaultKind::kLossBurst, kSteady, -1, -1, 5000, 1.5}},
      {"mqtt", {1000, FaultKind::kLossBurst, kSteady, -1, -1, 5000, -0.1}},
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
  plan.registry_expiry(units::seconds(2), FaultAnchor::kRunStart);

  std::vector<std::string> trace;
  FaultHooks hooks;
  hooks.set_nic = [&](int node, bool down) {
    trace.push_back((down ? "nic_down:" : "nic_up:") + std::to_string(node));
  };
  hooks.set_loss = [&](double p, bool active) {
    trace.push_back((active ? "loss_on:" : "loss_off:") + std::to_string(p));
  };
  hooks.expire_registrations = [&] { trace.push_back("expire"); };

  FaultInjector injector(sim, plan, hooks);
  injector.arm(units::seconds(10));

  ASSERT_EQ(injector.windows().size(), 2u);  // expiry is instantaneous
  EXPECT_EQ(injector.windows()[0].begin, units::seconds(1));
  EXPECT_EQ(injector.windows()[0].end, units::seconds(4));
  EXPECT_EQ(injector.windows()[1].begin, units::seconds(15));
  EXPECT_EQ(injector.windows()[1].end, units::seconds(17));

  sim.run();
  EXPECT_EQ(injector.injected(), 3u);
  const std::vector<std::string> expected = {
      "loss_on:0.500000", "expire", "loss_off:0.500000", "nic_down:3",
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
