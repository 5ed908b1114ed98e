// Focused coverage for wire-type sizing, consumer-service one-time query
// edge cases, and the registry's lookup path under churn.
#include <gtest/gtest.h>

#include "cluster/hydra.hpp"
#include "core/payloads.hpp"
#include "rgma/api.hpp"
#include "rgma/network.hpp"

namespace gridmon::rgma {
namespace {

TEST(Wire, StreamBatchSizeScalesWithTuples) {
  StreamBatch batch;
  batch.table = "t";
  const std::int64_t empty = batch.wire_size();
  Tuple tuple;
  tuple.values = {SqlValue{std::int64_t{1}}, SqlValue{std::string("abc")}};
  batch.tuples.push_back(tuple);
  batch.tuples.push_back(tuple);
  EXPECT_EQ(batch.wire_size(), empty + 2 * tuple.wire_size());
}

TEST(Wire, StoreQueryResponseSize) {
  StoreQueryResponse resp;
  EXPECT_EQ(resp.wire_size(), 16);
  Tuple tuple;
  tuple.values = {SqlValue{std::int64_t{1}}};
  resp.tuples.push_back(tuple);
  EXPECT_EQ(resp.wire_size(), 16 + tuple.wire_size());
}

struct OneTimeEdgeFixture : ::testing::Test {
  cluster::Hydra hydra{cluster::HydraConfig{.seed = 123}};
  RgmaNetworkConfig config;
  std::unique_ptr<RgmaNetwork> network;
  std::unique_ptr<net::HttpClient> http;

  void SetUp() override {
    network = std::make_unique<RgmaNetwork>(hydra, config);
    network->create_table(core::generator_table("generators"));
    http = std::make_unique<net::HttpClient>(hydra.streams(),
                                             net::Endpoint{4, 20000});
  }
};

TEST_F(OneTimeEdgeFixture, MalformedQueryAnswersWithoutTuples) {
  Consumer consumer(hydra.host(4), *http, network->assign_consumer_service(),
                    1, "SELECT FROM nothing at all");
  bool answered = false;
  std::size_t count = 99;
  consumer.query_latest([&](std::vector<Tuple> tuples, SimTime) {
    answered = true;
    count = tuples.size();
  });
  hydra.sim().run_until(units::seconds(5));
  // A 400 response carries no PollResponse body; the client surfaces an
  // empty result set rather than hanging.
  EXPECT_TRUE(answered);
  EXPECT_EQ(count, 0u);
}

TEST_F(OneTimeEdgeFixture, HistoryOutlivesLatest) {
  PrimaryProducer producer(hydra.host(4), *http,
                           network->assign_producer_service(), 1,
                           "generators");
  producer.declare(nullptr);
  auto rng = hydra.sim().rng_stream("t");
  hydra.sim().schedule_at(units::seconds(2), [&] {
    producer.insert(core::make_generator_row(1, 0, hydra.sim().now(), rng));
  });

  Consumer consumer(hydra.host(4), *http, network->assign_consumer_service(),
                    2, "SELECT * FROM generators");
  std::size_t latest_count = 99;
  std::size_t history_count = 0;
  // Query at t=45: past the 30 s latest retention, within the 60 s history.
  hydra.sim().schedule_at(units::seconds(45), [&] {
    consumer.query_latest([&](std::vector<Tuple> tuples, SimTime) {
      latest_count = tuples.size();
    });
    consumer.query_history([&](std::vector<Tuple> tuples, SimTime) {
      history_count = tuples.size();
    });
  });
  hydra.sim().run_until(units::seconds(55));
  EXPECT_EQ(latest_count, 0u);
  EXPECT_EQ(history_count, 1u);
}

TEST_F(OneTimeEdgeFixture, LatestMergesAcrossProducerServices) {
  // Distributed deployment: producers land on different services; a latest
  // query must merge both.
  cluster::Hydra fresh{cluster::HydraConfig{.seed = 124}};
  RgmaNetworkConfig dist;
  dist.producer_hosts = {0, 1};
  dist.consumer_hosts = {2};
  RgmaNetwork net(fresh, dist);
  net.create_table(core::generator_table("generators"));
  net::HttpClient client(fresh.streams(), net::Endpoint{4, 20000});

  PrimaryProducer p1(fresh.host(4), client, net.assign_producer_service(), 1,
                     "generators");
  PrimaryProducer p2(fresh.host(4), client, net.assign_producer_service(), 2,
                     "generators");
  ASSERT_NE(net.producer_service(0).endpoint(),
            net.producer_service(1).endpoint());
  p1.declare(nullptr);
  p2.declare(nullptr);
  auto rng = fresh.sim().rng_stream("t");
  fresh.sim().schedule_at(units::seconds(2), [&] {
    p1.insert(core::make_generator_row(1, 0, fresh.sim().now(), rng));
    p2.insert(core::make_generator_row(2, 0, fresh.sim().now(), rng));
  });
  Consumer consumer(fresh.host(4), client, net.assign_consumer_service(), 3,
                    "SELECT * FROM generators");
  std::size_t merged = 0;
  fresh.sim().schedule_at(units::seconds(8), [&] {
    consumer.query_latest([&](std::vector<Tuple> tuples, SimTime) {
      merged = tuples.size();
    });
  });
  fresh.sim().run_until(units::seconds(15));
  EXPECT_EQ(merged, 2u);
}

TEST_F(OneTimeEdgeFixture, RegistryLookupReflectsChurn) {
  network->registry().set_registration_ttl(units::seconds(15));
  PrimaryProducer producer(hydra.host(4), *http,
                           network->assign_producer_service(), 1,
                           "generators");
  producer.declare(nullptr);
  auto rng = hydra.sim().rng_stream("t");
  hydra.sim().schedule_at(units::seconds(2), [&] {
    producer.insert(core::make_generator_row(1, 0, hydra.sim().now(), rng));
  });
  Consumer consumer(hydra.host(4), *http, network->assign_consumer_service(),
                    2, "SELECT * FROM generators");
  // Before expiry the history query sees the producer; after expiry the
  // mediator no longer plans it in.
  std::size_t before = 0;
  std::size_t after = 99;
  hydra.sim().schedule_at(units::seconds(6), [&] {
    consumer.query_history([&](std::vector<Tuple> tuples, SimTime) {
      before = tuples.size();
    });
  });
  hydra.sim().schedule_at(units::seconds(50), [&] {
    consumer.query_history([&](std::vector<Tuple> tuples, SimTime) {
      after = tuples.size();
    });
  });
  hydra.sim().run_until(units::minutes(1));
  EXPECT_EQ(before, 1u);
  EXPECT_EQ(after, 0u);  // registration expired → no producers to query
}

}  // namespace
}  // namespace gridmon::rgma
