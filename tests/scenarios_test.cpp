// The scenario catalogue must match the paper's experiment parameters.
#include "core/scenarios.hpp"

#include <gtest/gtest.h>

#include "rgma/api.hpp"

namespace gridmon::core::scenarios {
namespace {

TEST(ScenariosTest, ComparisonTestsMatchTableII) {
  const auto tests = narada_comparison_tests();
  ASSERT_EQ(tests.size(), 6u);

  EXPECT_EQ(tests[0].label, "UDP");
  EXPECT_EQ(tests[0].config.transport, narada::TransportKind::kUdp);
  EXPECT_EQ(tests[0].config.ack_mode,
            jms::AcknowledgeMode::kAutoAcknowledge);

  EXPECT_EQ(tests[1].label, "UDP CLI");
  EXPECT_EQ(tests[1].config.ack_mode,
            jms::AcknowledgeMode::kClientAcknowledge);

  EXPECT_EQ(tests[2].label, "NIO");
  EXPECT_EQ(tests[2].config.transport, narada::TransportKind::kNio);

  EXPECT_EQ(tests[3].label, "TCP");
  EXPECT_EQ(tests[3].config.transport, narada::TransportKind::kTcp);

  // Test 5: triple payload, one third the rate — total data unchanged.
  EXPECT_EQ(tests[4].label, "Triple");
  EXPECT_GT(tests[4].config.fleet.pad_bytes, 0);
  EXPECT_EQ(tests[4].config.fleet.publish_period,
            3 * tests[3].config.fleet.publish_period);

  // Test 6: a tenth of the connections at ten times the rate.
  EXPECT_EQ(tests[5].label, "80");
  EXPECT_EQ(tests[5].config.fleet.generators, 80);
  EXPECT_EQ(tests[5].config.fleet.publish_period,
            tests[3].config.fleet.publish_period / 10);

  for (const auto& test : tests) {
    if (test.label != "80") {
      EXPECT_EQ(test.config.fleet.generators, 800);
    }
    EXPECT_EQ(test.config.fleet.creation_interval, units::milliseconds(500));
    EXPECT_EQ(test.config.fleet.warmup_min, units::seconds(10));
    EXPECT_EQ(test.config.fleet.warmup_max, units::seconds(20));
    EXPECT_EQ(test.config.duration, units::minutes(30));
  }
}

TEST(ScenariosTest, ComparisonTestsDeliverTheSameTotalData) {
  // The paper equalised total data across tests 4, 5 and 6.
  const auto tests = narada_comparison_tests();
  auto messages = [](const NaradaConfig& c) {
    return c.fleet.generators * (c.duration / c.fleet.publish_period);
  };
  const auto tcp = tests[3].config;
  const auto triple = tests[4].config;
  const auto eighty = tests[5].config;
  EXPECT_EQ(messages(tcp), 144000);
  EXPECT_EQ(messages(triple) * 3, messages(tcp));  // 3x payload, 1/3 count
  EXPECT_EQ(messages(eighty), messages(tcp));
}

TEST(ScenariosTest, NaradaDeployments) {
  const auto single = narada_single(2000);
  EXPECT_EQ(single.fleet.generators, 2000);
  EXPECT_EQ(single.broker_hosts, (std::vector<int>{0}));
  EXPECT_FALSE(single.subscription_aware_routing);

  const auto dbn = narada_dbn(4000);
  EXPECT_EQ(dbn.broker_hosts, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ScenariosTest, RgmaDeploymentsMatchSectionIIIF) {
  const auto single = rgma_single(400);
  EXPECT_EQ(single.fleet.generators, 400);
  EXPECT_FALSE(single.distributed);
  EXPECT_EQ(single.fleet.creation_interval, units::seconds(1));
  EXPECT_EQ(single.fleet.publish_period, units::seconds(10));
  EXPECT_EQ(rgma::kPollPeriod, units::milliseconds(100));

  const auto distributed = rgma_distributed(1000);
  EXPECT_TRUE(distributed.distributed);

  const auto secondary = rgma_with_secondary(100);
  EXPECT_TRUE(secondary.via_secondary_producer);
  EXPECT_EQ(secondary.secondary_delay, units::seconds(30));

  const auto no_warmup = rgma_no_warmup();
  EXPECT_EQ(no_warmup.fleet.generators, 400);
  EXPECT_EQ(no_warmup.fleet.warmup_max, 0);
}

TEST(ScenariosTest, FactoriesDefaultToThePapersThirtyMinutes) {
  // There is no process-wide duration knob any more: factories always
  // return the paper-faithful 30-minute configuration; shorter runs set
  // the duration explicitly (scaled() or CampaignOptions::duration).
  EXPECT_EQ(narada_single(100).duration, units::minutes(30));
  EXPECT_EQ(narada_dbn(2000).duration, units::minutes(30));
  EXPECT_EQ(rgma_single(100).duration, units::minutes(30));
  EXPECT_EQ(rgma_distributed(400).duration, units::minutes(30));
  EXPECT_EQ(rgma_with_secondary(100).duration, units::minutes(30));
  EXPECT_EQ(rgma_no_warmup().duration, units::minutes(30));
}

TEST(ScenariosTest, SeedsPropagate) {
  EXPECT_EQ(narada_single(100, 7).seed, 7u);
  EXPECT_EQ(rgma_single(100, 9).seed, 9u);
}

}  // namespace
}  // namespace gridmon::core::scenarios
