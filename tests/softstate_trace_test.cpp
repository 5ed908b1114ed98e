// Tests for registry soft-state expiry/renewal.
#include <gtest/gtest.h>

#include "cluster/hydra.hpp"
#include "core/payloads.hpp"
#include "rgma/api.hpp"
#include "rgma/network.hpp"

namespace gridmon {
namespace {

struct SoftStateFixture : ::testing::Test {
  cluster::Hydra hydra{cluster::HydraConfig{.seed = 91}};
  rgma::RgmaNetwork network{hydra, rgma::RgmaNetworkConfig{}};
  net::HttpClient http{hydra.streams(), net::Endpoint{4, 20000}};

  void SetUp() override {
    network.create_table(core::generator_table("generators"));
  }

  int lookup_count() {
    // One-time query via a consumer; empty result still tells us producer
    // count indirectly — instead use the registry directly.
    return network.registry().producer_count();
  }
};

TEST_F(SoftStateFixture, RegistrationsExpireWithoutRenewal) {
  network.registry().set_registration_ttl(units::seconds(20));
  rgma::PrimaryProducer producer(hydra.host(4), http,
                                 network.assign_producer_service(), 1,
                                 "generators");
  producer.declare(nullptr);
  hydra.sim().run_until(units::seconds(5));
  EXPECT_EQ(network.registry().producer_count(), 1);
  // No renewals configured: the entry expires after the TTL.
  hydra.sim().run_until(units::seconds(60));
  EXPECT_EQ(network.registry().producer_count(), 0);
  EXPECT_EQ(network.registry().expired_registrations(), 1u);
}

TEST_F(SoftStateFixture, HeartbeatsKeepRegistrationsAlive) {
  network.registry().set_registration_ttl(units::seconds(20));
  network.producer_service(0).enable_registration_renewal(units::seconds(5));
  rgma::PrimaryProducer producer(hydra.host(4), http,
                                 network.assign_producer_service(), 1,
                                 "generators");
  producer.declare(nullptr);
  hydra.sim().run_until(units::minutes(3));
  EXPECT_EQ(network.registry().producer_count(), 1);
  EXPECT_EQ(network.registry().expired_registrations(), 0u);
}

TEST_F(SoftStateFixture, TtlDisabledKeepsEverythingForever) {
  rgma::PrimaryProducer producer(hydra.host(4), http,
                                 network.assign_producer_service(), 1,
                                 "generators");
  producer.declare(nullptr);
  hydra.sim().run_until(units::minutes(10));
  EXPECT_EQ(network.registry().producer_count(), 1);
}

}  // namespace
}  // namespace gridmon
