// Integration tests for the R-GMA pipeline: registry mediation, primary
// producer storage/streaming, consumer continuous queries, polling,
// secondary producer, OOM refusal, and the warm-up loss mechanism.
#include <gtest/gtest.h>

#include "cluster/hydra.hpp"
#include "core/payloads.hpp"
#include "rgma/api.hpp"
#include "rgma/network.hpp"
#include "rgma/secondary_producer.hpp"

namespace gridmon::rgma {
namespace {

struct RgmaFixture : ::testing::Test {
  cluster::Hydra hydra{cluster::HydraConfig{.seed = 21}};
  RgmaNetworkConfig config;

  std::unique_ptr<RgmaNetwork> make_network(bool distributed = false) {
    if (distributed) {
      config.producer_hosts = {0, 1};
      config.consumer_hosts = {2, 3};
    }
    auto network = std::make_unique<RgmaNetwork>(hydra, config);
    network->create_table(core::generator_table("generators"));
    return network;
  }
};

TEST_F(RgmaFixture, EndToEndContinuousQuery) {
  auto network = make_network();
  net::HttpClient http(hydra.streams(), net::Endpoint{4, 20000});

  Consumer consumer(hydra.host(4), http, network->assign_consumer_service(),
                    100, "SELECT * FROM generators WHERE id < 1000000");
  bool consumer_ready = false;
  consumer.create([&](bool ok) { consumer_ready = ok; });

  PrimaryProducer producer(hydra.host(4), http,
                           network->assign_producer_service(), 1,
                           "generators");
  bool producer_ready = false;
  producer.declare([&](bool ok) { producer_ready = ok; });

  // Warm-up (mediation), then insert.
  auto rng = hydra.sim().rng_stream("test");
  int inserted_ok = 0;
  hydra.sim().schedule_at(units::seconds(10), [&] {
    for (int i = 0; i < 3; ++i) {
      producer.insert(
          core::make_generator_row(1, i, hydra.sim().now(), rng),
          [&](bool ok, SimTime) { inserted_ok += ok ? 1 : 0; });
    }
  });

  // Poll until the tuples arrive.
  std::vector<Tuple> received;
  sim::PeriodicTimer poller(hydra.sim(), units::seconds(1),
                            units::milliseconds(100), [&] {
                              consumer.poll([&](std::vector<Tuple> tuples,
                                                SimTime) {
                                for (auto& t : tuples) {
                                  received.push_back(std::move(t));
                                }
                              });
                            });
  hydra.sim().run_until(units::seconds(30));

  EXPECT_TRUE(consumer_ready);
  EXPECT_TRUE(producer_ready);
  EXPECT_EQ(inserted_ok, 3);
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(std::get<std::int64_t>(received[0].values[core::kRowIdColumn]), 1);
  EXPECT_EQ(network->total_producer_stats().inserts_ok, 3u);
  EXPECT_EQ(network->total_consumer_stats().tuples_matched, 3u);
}

TEST_F(RgmaFixture, PredicatePushDownFiltersAtTheProducer) {
  // The WHERE text the mediator pushes down is the parsed clause's source,
  // whatever the keyword's case and whatever names around it hold "where".
  const struct {
    const char* table;
    const char* query;
  } kInputs[] = {
      {"generators", "SELECT * FROM generators WHERE id < 5"},
      {"generators", "SELECT * FROM generators Where id < 5"},
      {"nowhere", "select * from nowhere where id < 5"},
  };
  for (const auto& input : kInputs) {
    SCOPED_TRACE(input.query);
    cluster::Hydra world{cluster::HydraConfig{.seed = 21}};
    RgmaNetwork network(world, config);
    network.create_table(core::generator_table(input.table));
    net::HttpClient http(world.streams(), net::Endpoint{4, 20000});

    Consumer consumer(world.host(4), http, network.assign_consumer_service(),
                      100, input.query);
    consumer.create(nullptr);
    PrimaryProducer producer(world.host(4), http,
                             network.assign_producer_service(), 1,
                             input.table);
    producer.declare(nullptr);

    auto rng = world.sim().rng_stream("test");
    world.sim().schedule_at(units::seconds(10), [&] {
      for (int id = 0; id < 10; ++id) {
        producer.insert(
            core::make_generator_row(id, 0, world.sim().now(), rng), nullptr);
      }
    });
    std::size_t received = 0;
    sim::PeriodicTimer poller(
        world.sim(), units::seconds(1), units::milliseconds(100), [&] {
          consumer.poll([&](std::vector<Tuple> tuples, SimTime) {
            received += tuples.size();
            for (const auto& t : tuples) {
              EXPECT_LT(
                  std::get<std::int64_t>(t.values[core::kRowIdColumn]), 5);
            }
          });
        });
    world.sim().run_until(units::seconds(30));
    EXPECT_EQ(received, 5u);
    // The filtering happened producer-side: only matching tuples streamed.
    EXPECT_EQ(network.total_producer_stats().tuples_streamed, 5u);
  }
}

TEST_F(RgmaFixture, WrongProducerOrTableInsertFails) {
  auto network = make_network();
  net::HttpClient http(hydra.streams(), net::Endpoint{4, 20000});
  PrimaryProducer producer(hydra.host(4), http,
                           network->assign_producer_service(), 1,
                           "generators");
  producer.declare(nullptr);
  auto rng = hydra.sim().rng_stream("test");

  // Insert with an undeclared producer id fails.
  PrimaryProducer ghost(hydra.host(4), http,
                        network->assign_producer_service(), 999,
                        "generators");
  bool ghost_ok = true;
  hydra.sim().schedule_at(units::seconds(2), [&] {
    ghost.insert(core::make_generator_row(1, 0, 0, rng),
                 [&](bool ok, SimTime) { ghost_ok = ok; });
  });
  hydra.sim().run_until(units::seconds(5));
  EXPECT_FALSE(ghost_ok);
  EXPECT_EQ(network->total_producer_stats().inserts_failed, 1u);
}

TEST_F(RgmaFixture, DeclareAgainstUnknownTableIsRefused) {
  auto network = make_network();
  net::HttpClient http(hydra.streams(), net::Endpoint{4, 20000});
  PrimaryProducer producer(hydra.host(4), http,
                           network->assign_producer_service(), 1,
                           "no_such_table");
  bool ok = true;
  producer.declare([&](bool declared) { ok = declared; });
  hydra.sim().run_until(units::seconds(5));
  EXPECT_FALSE(ok);
  EXPECT_TRUE(producer.refused());
}

TEST_F(RgmaFixture, TuplesInsertedBeforeAttachmentAreLost) {
  auto network = make_network();
  net::HttpClient http(hydra.streams(), net::Endpoint{4, 20000});
  Consumer consumer(hydra.host(4), http, network->assign_consumer_service(),
                    100, "SELECT * FROM generators");
  consumer.create(nullptr);
  PrimaryProducer producer(hydra.host(4), http,
                           network->assign_producer_service(), 1,
                           "generators");
  auto rng = hydra.sim().rng_stream("test");
  // Insert immediately after declaration returns — before the mediator can
  // attach the consumer (the paper's no-warm-up loss).
  producer.declare([&](bool ok) {
    ASSERT_TRUE(ok);
    producer.insert(core::make_generator_row(1, 0, hydra.sim().now(), rng),
                    nullptr);
  });
  // A second insert well after mediation.
  hydra.sim().schedule_at(units::seconds(15), [&] {
    producer.insert(core::make_generator_row(1, 1, hydra.sim().now(), rng),
                    nullptr);
  });
  std::size_t received = 0;
  sim::PeriodicTimer poller(hydra.sim(), units::seconds(1),
                            units::milliseconds(100), [&] {
                              consumer.poll([&](std::vector<Tuple> tuples,
                                                SimTime) {
                                received += tuples.size();
                              });
                            });
  hydra.sim().run_until(units::seconds(40));
  EXPECT_EQ(network->total_producer_stats().inserts_ok, 2u);
  EXPECT_EQ(received, 1u);  // the early tuple was stored but never streamed
}

TEST_F(RgmaFixture, ProducerServiceRefusesWhenOutOfMemory) {
  cluster::HydraConfig small_config;
  small_config.seed = 22;
  small_config.host.memory_budget = 96 * units::MiB;
  cluster::Hydra small(small_config);
  RgmaNetworkConfig net_config;
  RgmaNetwork network(small, net_config);
  network.create_table(core::generator_table("generators"));

  net::HttpClient http(small.streams(), net::Endpoint{4, 20000});
  int accepted = 0;
  int refused = 0;
  std::vector<std::unique_ptr<PrimaryProducer>> producers;
  for (int i = 0; i < 60; ++i) {
    producers.push_back(std::make_unique<PrimaryProducer>(
        small.host(4), http, network.assign_producer_service(), i,
        "generators"));
    small.sim().schedule_at(units::milliseconds(100 * i),
                            [&, p = producers.back().get()] {
                              p->declare([&](bool ok) {
                                ok ? ++accepted : ++refused;
                              });
                            });
  }
  small.sim().run_until(units::seconds(30));
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
  EXPECT_EQ(accepted + refused, 60);
  EXPECT_EQ(network.total_producer_stats().producers_refused,
            static_cast<std::uint64_t>(refused));
}

TEST_F(RgmaFixture, SecondaryProducerRepublishesWithDeliberateDelay) {
  auto network = make_network();
  network->create_table(core::generator_table("generators_sp"));
  net::HttpClient http(hydra.streams(), net::Endpoint{4, 20000});
  net::HttpClient sp_http(hydra.streams(), net::Endpoint{3, 21000});

  SecondaryProducer secondary(hydra.host(3), sp_http,
                              network->assign_consumer_service(),
                              network->assign_producer_service(), 500,
                              "generators", "generators_sp",
                              units::seconds(10));
  secondary.start(nullptr);

  Consumer final_consumer(hydra.host(4), http,
                          network->assign_consumer_service(), 100,
                          "SELECT * FROM generators_sp");
  final_consumer.create(nullptr);

  PrimaryProducer producer(hydra.host(4), http,
                           network->assign_producer_service(), 1,
                           "generators");
  producer.declare(nullptr);

  auto rng = hydra.sim().rng_stream("test");
  const SimTime insert_at = units::seconds(12);
  hydra.sim().schedule_at(insert_at, [&] {
    producer.insert(core::make_generator_row(1, 0, hydra.sim().now(), rng),
                    nullptr);
  });
  SimTime received_at = -1;
  sim::PeriodicTimer poller(hydra.sim(), units::seconds(1),
                            units::milliseconds(100), [&] {
                              final_consumer.poll([&](std::vector<Tuple> t,
                                                      SimTime) {
                                if (!t.empty() && received_at < 0) {
                                  received_at = hydra.sim().now();
                                }
                              });
                            });
  hydra.sim().run_until(units::minutes(2));
  ASSERT_GT(received_at, 0);
  EXPECT_EQ(secondary.republished(), 1u);
  // End-to-end latency dominated by the deliberate 10 s delay.
  EXPECT_GT(received_at - insert_at, units::seconds(10));
  EXPECT_LT(received_at - insert_at, units::seconds(20));
}

TEST_F(RgmaFixture, DistributedDeploymentPartitionsLoad) {
  auto network = make_network(/*distributed=*/true);
  EXPECT_EQ(network->producer_service_count(), 2);
  EXPECT_EQ(network->consumer_service_count(), 2);
  // Round-robin assignment alternates services.
  const auto a = network->assign_producer_service();
  const auto b = network->assign_producer_service();
  const auto c = network->assign_producer_service();
  EXPECT_NE(a, b);
  EXPECT_EQ(a, c);
}

TEST_F(RgmaFixture, ConsumerCycleLengthGrowsWithProducers) {
  auto network = make_network();
  auto& service = network->consumer_service(0);
  const SimTime empty_cycle = service.cycle_length();
  net::HttpClient http(hydra.streams(), net::Endpoint{4, 20000});
  Consumer consumer(hydra.host(4), http, network->assign_consumer_service(),
                    100, "SELECT * FROM generators");
  consumer.create(nullptr);
  std::vector<std::unique_ptr<PrimaryProducer>> producers;
  for (int i = 0; i < 20; ++i) {
    producers.push_back(std::make_unique<PrimaryProducer>(
        hydra.host(4), http, network->assign_producer_service(), i,
        "generators"));
    producers.back()->declare(nullptr);
  }
  hydra.sim().run_until(units::seconds(30));
  EXPECT_EQ(service.attached_producers(), 20);
  EXPECT_GT(service.cycle_length(), empty_cycle);
}

}  // namespace
}  // namespace gridmon::rgma
