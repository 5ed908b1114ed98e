// Full-campaign integration tests: run shortened versions of the paper's
// experiments through the public harness and assert the headline shapes.
#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/experiment.hpp"
#include "core/registry.hpp"
#include "core/scenarios.hpp"

namespace gridmon::core {
namespace {

NaradaConfig quick_narada(int generators, std::uint64_t seed = 1) {
  NaradaConfig config;
  config.fleet.generators = generators;
  config.duration = units::minutes(2);
  config.seed = seed;
  return config;
}

RgmaConfig quick_rgma(int producers, std::uint64_t seed = 1) {
  RgmaConfig config;
  config.fleet.generators = producers;
  config.duration = units::minutes(2);
  config.seed = seed;
  return config;
}

TEST(NaradaExperiment, DeliversEverythingOverTcp) {
  const Results results = run_narada_experiment(quick_narada(100));
  EXPECT_EQ(results.metrics.sent(), 100u * 12u);  // 12 messages in 2 min
  EXPECT_EQ(results.metrics.received(), results.metrics.sent());
  EXPECT_DOUBLE_EQ(results.metrics.loss_rate(), 0.0);
  EXPECT_EQ(results.refused, 0u);
  EXPECT_TRUE(results.completed);
  // Millisecond-scale RTT.
  EXPECT_GT(results.metrics.rtt_mean_ms(), 0.5);
  EXPECT_LT(results.metrics.rtt_mean_ms(), 20.0);
}

TEST(NaradaExperiment, DecompositionIsConsistent) {
  const Results results = run_narada_experiment(quick_narada(100));
  const double sum = results.metrics.prt_ms().mean() +
                     results.metrics.pt_ms().mean() +
                     results.metrics.srt_ms().mean();
  EXPECT_NEAR(sum, results.metrics.rtt_mean_ms(), 1e-6);
  // All three Narada phases are short (Fig 15).
  EXPECT_LT(results.metrics.prt_ms().mean(), 5.0);
  EXPECT_LT(results.metrics.pt_ms().mean(), 15.0);
  EXPECT_LT(results.metrics.srt_ms().mean(), 5.0);
}

TEST(NaradaExperiment, DeterministicForSameSeed) {
  const Results a = run_narada_experiment(quick_narada(50, 5));
  const Results b = run_narada_experiment(quick_narada(50, 5));
  ASSERT_EQ(a.metrics.received(), b.metrics.received());
  EXPECT_EQ(a.metrics.rtt_ms().raw(), b.metrics.rtt_ms().raw());

  const Results c = run_narada_experiment(quick_narada(50, 6));
  EXPECT_NE(a.metrics.rtt_ms().raw(), c.metrics.rtt_ms().raw());
}

TEST(NaradaExperiment, UdpLosesAFractionAndIsSlower) {
  NaradaConfig tcp = quick_narada(200, 2);
  NaradaConfig udp = tcp;
  udp.transport = narada::TransportKind::kUdp;
  const Results tcp_results = run_narada_experiment(tcp);
  const Results udp_results = run_narada_experiment(udp);
  EXPECT_GT(udp_results.metrics.rtt_mean_ms(),
            2.0 * tcp_results.metrics.rtt_mean_ms());
  // Loss is possible but small (~0.06 % expected).
  EXPECT_LT(udp_results.metrics.loss_rate(), 0.01);
  EXPECT_DOUBLE_EQ(tcp_results.metrics.loss_rate(), 0.0);
}

TEST(NaradaExperiment, DbnForwardsEveryEventUnderBroadcast) {
  NaradaConfig config = quick_narada(120);
  config.broker_hosts = {0, 1, 2, 3};
  const Results results = run_narada_experiment(config);
  EXPECT_EQ(results.metrics.received(), results.metrics.sent());
  // Broadcast deficiency: 3 forwards per published event.
  EXPECT_EQ(results.events_forwarded, results.metrics.sent() * 3);
}

TEST(NaradaExperiment, DbnRoutingAblationForwardsLess) {
  NaradaConfig config = quick_narada(120);
  config.broker_hosts = {0, 1, 2, 3};
  config.subscription_aware_routing = true;
  const Results results = run_narada_experiment(config);
  EXPECT_EQ(results.metrics.received(), results.metrics.sent());
  // Routed: only toward the two subscribing brokers.
  EXPECT_EQ(results.events_forwarded, results.metrics.sent() * 2);
}

TEST(RgmaExperiment, DeliversEverythingAfterWarmup) {
  const Results results = run_rgma_experiment(quick_rgma(50));
  EXPECT_EQ(results.metrics.sent(), 50u * 12u);
  EXPECT_EQ(results.metrics.received(), results.metrics.sent());
  EXPECT_EQ(results.refused, 0u);
  // Sub-second to seconds-scale RTT — far slower than Narada.
  EXPECT_GT(results.metrics.rtt_mean_ms(), 200.0);
  EXPECT_LT(results.metrics.rtt_mean_ms(), 5000.0);
}

TEST(RgmaExperiment, ProcessTimeDominates) {
  const Results results = run_rgma_experiment(quick_rgma(50));
  EXPECT_GT(results.metrics.pt_ms().mean(),
            10.0 * results.metrics.prt_ms().mean());
  EXPECT_GT(results.metrics.pt_ms().mean(),
            results.metrics.srt_ms().mean());
}

TEST(RgmaExperiment, NoWarmupLosesFirstTuples) {
  RgmaConfig config = quick_rgma(60);
  config.fleet.warmup_min = 0;
  config.fleet.warmup_max = 0;
  const Results results = run_rgma_experiment(config);
  EXPECT_GT(results.metrics.sent(), 0u);
  const double loss = results.metrics.loss_rate();
  EXPECT_GT(loss, 0.0);
  EXPECT_LT(loss, 0.05);  // a small fraction, as in the paper (0.17 %)
}

TEST(RgmaExperiment, SecondaryProducerAddsTheDeliberateDelay) {
  RgmaConfig config = quick_rgma(20);
  config.via_secondary_producer = true;
  config.secondary_delay = units::seconds(30);
  const Results results = run_rgma_experiment(config);
  EXPECT_GT(results.metrics.received(), 0u);
  EXPECT_GT(results.metrics.rtt_mean_ms(), 30'000.0);
  EXPECT_LT(results.metrics.rtt_mean_ms(), 40'000.0);
}

TEST(RgmaExperiment, DistributedBeatsSingleServerAtEqualLoad) {
  const Results single = run_rgma_experiment(quick_rgma(300, 3));
  RgmaConfig config = quick_rgma(300, 3);
  config.distributed = true;
  const Results distributed = run_rgma_experiment(config);
  EXPECT_LT(distributed.metrics.rtt_mean_ms(),
            single.metrics.rtt_mean_ms());
  EXPECT_GT(distributed.servers.cpu_idle_pct, single.servers.cpu_idle_pct);
}

TEST(CrossSystem, NaradaBeatsRgmaOnLatencyAtEqualLoad) {
  const Results narada = run_narada_experiment(quick_narada(100, 4));
  const Results rgma = run_rgma_experiment(quick_rgma(100, 4));
  // The paper's central comparison: two orders of magnitude apart.
  EXPECT_LT(narada.metrics.rtt_mean_ms() * 50.0,
            rgma.metrics.rtt_mean_ms());
}

// The aggregation and Web-Services ablations run through the Narada port
// like every other id: one gateway publisher for a fixed 120 s at any
// campaign duration, every delivery timed as RTT = PRT + PT + SRT (Fig 15),
// and the broker host sampled by vmstat.
TEST(AblationScenarios, RunOnTheNaradaPortForAFixedWindow) {
  for (int minutes : {1, 5}) {
    // The campaign runs each id through run_scenario on four workers.
    CampaignOptions options;
    options.jobs = 4;
    options.duration = units::minutes(minutes);
    CampaignRunner runner(options);
    ASSERT_EQ(runner.add_matching(builtin_registry(), "ablation/"), 8);
    const Campaign campaign = runner.run();
    for (const RunRecord& run : campaign.runs()) {
      SCOPED_TRACE(run.scenario_id + " at " + std::to_string(minutes) +
                   " min");
      const bool webservices =
          run.scenario_id.starts_with("ablation/webservices/");
      EXPECT_EQ(run.system, "narada");
      const Results& results = run.results;
      const Metrics& metrics = results.metrics;
      EXPECT_EQ(results.generators, 1);
      // 120 s at 150 msg/s or at 1,000 msg/s.
      EXPECT_EQ(metrics.sent(), webservices ? 18'000u : 120'000u);
      EXPECT_EQ(metrics.received(), metrics.sent());
      EXPECT_GT(metrics.prt_ms().mean(), 0.0);
      EXPECT_GT(metrics.srt_ms().mean(), 0.0);
      EXPECT_NEAR(metrics.prt_ms().mean() + metrics.pt_ms().mean() +
                      metrics.srt_ms().mean(),
                  metrics.rtt_mean_ms(), 1e-6);
      if (webservices) {
        EXPECT_LT(results.servers.cpu_idle_pct, 100.0);
      }
    }
  }
}

TEST(ScaledHelper, ShrinksDuration) {
  NaradaConfig config;
  config.duration = units::minutes(30);
  const auto quick = scaled(config, 0.1);
  EXPECT_EQ(quick.duration, units::minutes(3));
}

}  // namespace
}  // namespace gridmon::core
