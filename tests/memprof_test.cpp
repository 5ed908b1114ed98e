// Memory-footprint accounting: MemProfile arithmetic, hook routing through
// the scoped thread-local, middleware counting (R-GMA tuple stores), and
// the end-to-end invariants — mem gauges ride the Timeline, Results carry
// a peak summary, and profiling never perturbs the model.
#include "obs/memprof.hpp"

#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "rgma/storage.hpp"

namespace gridmon::obs {
namespace {

// Tests of the counting hooks and of a run's mem_* output need them
// compiled in; a GRIDMON_OBS=OFF build still runs the MemProfile units.
#define GRIDMON_REQUIRE_MEMPROF() \
  if (!gridmon::obs::kMemEnabled) GTEST_SKIP() << "built with GRIDMON_OBS=OFF"

TEST(MemProfile, TracksLiveAndPeakPerCategory) {
  MemProfile profile;
  profile.add(MemCategory::kBrokerRouting, 100);
  profile.add(MemCategory::kBrokerRouting, 50);
  profile.sub(MemCategory::kBrokerRouting, 120);
  EXPECT_EQ(profile.live(MemCategory::kBrokerRouting), 30);
  EXPECT_EQ(profile.peak(MemCategory::kBrokerRouting), 150);

  profile.set(MemCategory::kKernelSlab, 4096);
  profile.set(MemCategory::kKernelSlab, 1024);
  EXPECT_EQ(profile.live(MemCategory::kKernelSlab), 1024);
  EXPECT_EQ(profile.peak(MemCategory::kKernelSlab), 4096);
}

TEST(MemProfile, PeakTotalIsPeakOfSumNotSumOfPeaks) {
  MemProfile profile;
  profile.add(MemCategory::kClientRecords, 100);
  profile.sub(MemCategory::kClientRecords, 100);
  profile.add(MemCategory::kRgmaTuples, 60);
  // Per-category peaks are 100 and 60, but they never coexisted.
  EXPECT_EQ(profile.peak(MemCategory::kClientRecords), 100);
  EXPECT_EQ(profile.peak(MemCategory::kRgmaTuples), 60);
  EXPECT_EQ(profile.peak_total(), 100);
  EXPECT_EQ(profile.live_total(), 60);

  const MemSummary summary = profile.summary();
  EXPECT_TRUE(summary.enabled);
  EXPECT_EQ(summary.peak_at(MemCategory::kClientRecords), 100);
  EXPECT_EQ(summary.peak_total, 100);
}

TEST(MemProfile, DataPlaneCategoryNames) {
  EXPECT_EQ(to_string(MemCategory::kMqttSubIndex), "sub_index");
  EXPECT_EQ(gauge_name(MemCategory::kMqttSubIndex), "mem_sub_index");
  EXPECT_EQ(to_string(MemCategory::kPredicateCache), "predicate_cache");
  EXPECT_EQ(gauge_name(MemCategory::kPredicateCache), "mem_predicate_cache");
  // Every category has distinct labels (the CSV/JSON breakdowns iterate
  // the enum).
  for (std::size_t i = 0; i < kMemCategoryCount; ++i) {
    for (std::size_t j = i + 1; j < kMemCategoryCount; ++j) {
      EXPECT_NE(to_string(static_cast<MemCategory>(i)),
                to_string(static_cast<MemCategory>(j)));
    }
  }
}

TEST(MemProfile, HooksAreNoOpsWithoutInstalledProfile) {
  GRIDMON_REQUIRE_MEMPROF();
  EXPECT_EQ(memprof(), nullptr);
  mem_add(MemCategory::kNetConnections, 1 << 20);  // must not crash
  MemProfile profile;
  {
    ScopedMemProfile scoped(&profile);
    EXPECT_EQ(memprof(), &profile);
    mem_add(MemCategory::kNetConnections, 64);
  }
  EXPECT_EQ(memprof(), nullptr);
  EXPECT_EQ(profile.live(MemCategory::kNetConnections), 64);
}

TEST(MemProfile, TupleStoreCountsInsertAndPrune) {
  GRIDMON_REQUIRE_MEMPROF();
  MemProfile profile;
  ScopedMemProfile scoped(&profile);
  std::int64_t peak_bytes = 0;
  {
    rgma::TupleStore store;
    rgma::Tuple tuple;
    tuple.values = {rgma::SqlValue{std::int64_t{42}}, rgma::SqlValue{3.14}};
    store.insert(tuple, /*now=*/0);
    store.insert(tuple, /*now=*/units::seconds(10));
    EXPECT_GT(store.stored_bytes(), 0);
    EXPECT_EQ(profile.live(MemCategory::kRgmaTuples), store.stored_bytes());
    peak_bytes = store.stored_bytes();

    // Prune past the first tuple's history retention (60 s default):
    // accounting follows the retention window down.
    const std::int64_t freed = store.prune(units::seconds(65));
    EXPECT_GT(freed, 0);
    EXPECT_EQ(profile.live(MemCategory::kRgmaTuples), store.stored_bytes());
    EXPECT_LT(store.stored_bytes(), peak_bytes);
  }
  // Store destruction releases the remainder.
  EXPECT_EQ(profile.live(MemCategory::kRgmaTuples), 0);
  EXPECT_EQ(profile.peak(MemCategory::kRgmaTuples), peak_bytes);
}

}  // namespace
}  // namespace gridmon::obs

namespace gridmon::core {
namespace {

NaradaConfig workload() {
  NaradaConfig config;
  config.fleet.generators = 60;
  config.duration = units::minutes(1);
  config.seed = 7;
  return config;
}

TEST(MemProfExperiment, SummaryAndGaugesPopulate) {
  GRIDMON_REQUIRE_MEMPROF();
  NaradaConfig config = workload();
  config.obs.enabled = true;
  config.obs.span_sample_every = 0;
  const Results results = run_narada_experiment(config);

  ASSERT_TRUE(results.mem.enabled);
  EXPECT_GT(results.mem.peak_at(obs::MemCategory::kClientRecords), 0);
  EXPECT_GT(results.mem.peak_at(obs::MemCategory::kNetConnections), 0);
  EXPECT_GT(results.mem.peak_at(obs::MemCategory::kBrokerRouting), 0);
  EXPECT_GT(results.mem.peak_at(obs::MemCategory::kKernelSlab), 0);
  EXPECT_GE(results.mem.peak_total,
            results.mem.peak_at(obs::MemCategory::kClientRecords));

  // The mem gauges append after the classic columns.
  ASSERT_TRUE(results.obs != nullptr);
  const auto& columns = results.obs->columns;
  EXPECT_NE(std::find(columns.begin(), columns.end(), "mem_client_records"),
            columns.end());
  EXPECT_NE(std::find(columns.begin(), columns.end(), "mem_total"),
            columns.end());
}

// Profiling rides on obs: a run with obs off profiles nothing.
TEST(MemProfExperiment, OptOutLeavesSummaryEmpty) {
  const Results results = run_narada_experiment(workload());
  EXPECT_FALSE(results.mem.enabled);
  EXPECT_EQ(results.mem.peak_total, 0);
  EXPECT_EQ(results.obs, nullptr);
}

TEST(MemProfExperiment, ProfilingDoesNotPerturbTheModel) {
  const Results off = run_narada_experiment(workload());

  NaradaConfig with = workload();
  with.obs.enabled = true;
  with.obs.span_sample_every = 0;
  const Results on = run_narada_experiment(with);

  // Bit-identical metrics and kernel event counts (the sampler's own timer
  // firings are discounted from the stats).
  EXPECT_EQ(off.metrics.sent(), on.metrics.sent());
  EXPECT_EQ(off.metrics.received(), on.metrics.received());
  EXPECT_EQ(off.metrics.rtt_mean_ms(), on.metrics.rtt_mean_ms());
  EXPECT_EQ(off.kernel.events_executed, on.kernel.events_executed);
}

TEST(MemProfExperiment, RgmaRunsCountTupleStores) {
  GRIDMON_REQUIRE_MEMPROF();
  RgmaConfig config;
  config.fleet.generators = 40;
  config.duration = units::minutes(1);
  config.seed = 3;
  config.obs.enabled = true;
  config.obs.span_sample_every = 0;
  const Results results = run_rgma_experiment(config);
  ASSERT_TRUE(results.mem.enabled);
  EXPECT_GT(results.mem.peak_at(obs::MemCategory::kRgmaTuples), 0);
  EXPECT_GT(results.mem.peak_at(obs::MemCategory::kKernelSlab), 0);
  // Compiled predicates (producer attachments + consumer registrations)
  // show up in the breakdown and as a timeline gauge.
  EXPECT_GT(results.mem.peak_at(obs::MemCategory::kPredicateCache), 0);
  ASSERT_TRUE(results.obs != nullptr);
  const auto& columns = results.obs->columns;
  EXPECT_NE(std::find(columns.begin(), columns.end(), "mem_predicate_cache"),
            columns.end());
}

TEST(MemProfExperiment, MqttRunsCountSubscriptionIndex) {
  GRIDMON_REQUIRE_MEMPROF();
  MqttConfig config;
  config.fleet.generators = 40;
  config.duration = units::minutes(1);
  config.seed = 3;
  config.obs.enabled = true;
  config.obs.span_sample_every = 0;
  const Results results = run_mqtt_experiment(config);
  ASSERT_TRUE(results.mem.enabled);
  EXPECT_GT(results.mem.peak_at(obs::MemCategory::kMqttSubIndex), 0);
  EXPECT_GT(results.mem.peak_at(obs::MemCategory::kBrokerRouting), 0);
  ASSERT_TRUE(results.obs != nullptr);
  const auto& columns = results.obs->columns;
  EXPECT_NE(std::find(columns.begin(), columns.end(), "mem_sub_index"),
            columns.end());
}

}  // namespace
}  // namespace gridmon::core
