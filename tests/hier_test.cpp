// The hierarchical aggregation tier: TopologySpec expands deterministically,
// the flyweight fleet is a pure function of the seed, edges and the root
// agree on per-sample accounting, and an OOM-refused regional subtree
// counts every descendant generator as refused.
#include "hier/aggregator.hpp"

#include <limits>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/hier_experiment.hpp"
#include "core/registry.hpp"
#include "hier/fleet.hpp"
#include "hier/topology.hpp"

namespace gridmon::hier {
namespace {

TopologySpec small_spec() {
  TopologySpec spec;
  spec.generators = 400;
  spec.edge.fan_in = 20;
  spec.regional.fan_in = 5;
  return spec;
}

TEST(TopologySpecTest, ExpandIsDeterministicAndCoversEveryGenerator) {
  const TopologySpec spec = small_spec();
  const auto shape = spec.expand();
  EXPECT_EQ(shape.generators, 400);
  EXPECT_EQ(shape.edges, 20);      // 400 / 20
  EXPECT_EQ(shape.regionals, 4);   // 20 / 5
  // Expansion is a pure function of the spec.
  const auto again = spec.expand();
  EXPECT_EQ(again.edges, shape.edges);
  EXPECT_EQ(again.regionals, shape.regionals);

  // Parent/child maps are mutually consistent and partition the fleet.
  std::int64_t covered = 0;
  for (std::int64_t r = 0; r < shape.regionals; ++r) {
    for (std::int64_t e = shape.edge_begin(r); e < shape.edge_end(r); ++e) {
      EXPECT_EQ(shape.regional_of(e), r);
      for (std::int64_t g = shape.generator_begin(e);
           g < shape.generator_end(e); ++g) {
        EXPECT_EQ(shape.edge_of(g), e);
        ++covered;
      }
    }
    EXPECT_EQ(shape.generators_under(r), 100);  // 5 edges x 20 generators
  }
  EXPECT_EQ(covered, shape.generators);
}

TEST(TopologySpecTest, ExpandHandlesRaggedTails) {
  TopologySpec spec = small_spec();
  spec.generators = 450;  // 23 edges; the last holds 10 generators
  const auto shape = spec.expand();
  EXPECT_EQ(shape.edges, 23);
  EXPECT_EQ(shape.regionals, 5);  // last regional holds 3 edges
  EXPECT_EQ(shape.generator_end(22) - shape.generator_begin(22), 10);
  std::int64_t covered = 0;
  for (std::int64_t r = 0; r < shape.regionals; ++r) {
    covered += shape.generators_under(r);
  }
  EXPECT_EQ(covered, 450);
}

TEST(TopologySpecTest, ExpandValidates) {
  TopologySpec bad = small_spec();
  bad.edge.fan_in = 0;
  EXPECT_THROW((void)bad.expand(), std::invalid_argument);
  bad = small_spec();
  bad.edge_loss = 1.0;
  EXPECT_THROW((void)bad.expand(), std::invalid_argument);
  bad = small_spec();
  bad.regional.window = -1;
  EXPECT_THROW((void)bad.expand(), std::invalid_argument);
  // The fleet's phase slots run up to fan_in × sample_period in int64: a
  // fan-in that overflows it is rejected, and the error names the field.
  bad = small_spec();
  bad.edge.fan_in = std::numeric_limits<std::int64_t>::max() /
                        bad.sample_period + 1;
  try {
    (void)bad.expand();
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("fan_in"), std::string::npos)
        << error.what();
  }
  bad.edge.fan_in -= 1;  // the largest fan-in that fits
  EXPECT_NO_THROW((void)bad.expand());
}

TEST(FleetStateTest, PureFunctionOfSeed) {
  const TopologySpec spec = small_spec();
  const FleetState a(spec, 42);
  const FleetState b(spec, 42);
  const FleetState c(spec, 43);
  bool any_differs = false;
  for (std::int64_t g = 0; g < a.generators(); ++g) {
    EXPECT_EQ(a.phase(g), b.phase(g));
    EXPECT_GE(a.phase(g), 0);
    EXPECT_LT(a.phase(g), spec.sample_period);
    any_differs |= a.phase(g) != c.phase(g);
  }
  EXPECT_TRUE(any_differs);
  // No per-generator state: the fleet's bytes do not grow with its size.
  TopologySpec big = spec;
  big.generators = 1'000'000;
  const FleetState million(big, 42);
  EXPECT_EQ(million.generators(), 1'000'000);
  EXPECT_EQ(million.bytes(), a.bytes());
}

TEST(FleetStateTest, EachFifthOfThePeriodHoldsAFifthOfEveryEdge) {
  // Regression: phases used to be (u32 fraction × period) >> 32 in 64
  // bits. With a 10 s period in ns the product wraps, so every phase
  // landed below 2^32 ns = 4.295 s and the last two of five 2 s windows
  // of every period carried no frame.
  const TopologySpec spec = small_spec();  // 10 s period, 20 per edge
  ASSERT_EQ(spec.sample_period, units::seconds(10));
  ASSERT_EQ(spec.edge.fan_in % 5, 0);
  const FleetState fleet(spec, 42);
  const auto shape = spec.expand();
  const SimTime fifth = spec.sample_period / 5;
  for (std::int64_t e = 0; e < shape.edges; ++e) {
    std::int64_t per_fifth[5] = {};
    for (std::int64_t g = shape.generator_begin(e);
         g < shape.generator_end(e); ++g) {
      ++per_fifth[fleet.phase(g) / fifth];
    }
    for (int f = 0; f < 5; ++f) {
      EXPECT_EQ(per_fifth[f], spec.edge.fan_in / 5)
          << "edge " << e << " fifth " << f;
    }
  }
}

TEST(FleetStateTest, SampleLossMatchesConfiguredRate) {
  TopologySpec spec = small_spec();
  spec.edge_loss = 0.1;
  const FleetState fleet(spec, 1);
  std::int64_t lost = 0;
  const std::int64_t draws = 400 * 50;
  for (std::int64_t g = 0; g < 400; ++g) {
    for (std::int64_t k = 0; k < 50; ++k) lost += fleet.sample_lost(g, k);
  }
  const double rate = static_cast<double>(lost) / static_cast<double>(draws);
  EXPECT_NEAR(rate, 0.1, 0.01);
  // Lossless fleets never drop.
  const FleetState clean(small_spec(), 1);
  EXPECT_FALSE(clean.sample_lost(0, 0));
  // An unvalidated loss of 1.0 (expand() rejects it, but the constructor
  // can see a raw spec) clamps the 2^64 scale instead of a UB cast, and
  // drops everything.
  TopologySpec saturated = small_spec();
  saturated.edge_loss = 1.0;
  const FleetState all_lost(saturated, 1);
  for (std::int64_t k = 0; k < 100; ++k) {
    EXPECT_TRUE(all_lost.sample_lost(0, k));
  }
}

TEST(AggregatorTest, SubPeriodWindowsEnumerateEachSampleExactlyOnce) {
  // Regression: with edge.window < sample_period (every shipped hier/*
  // preset: 2 s windows, 10 s period) the last-sample index used to
  // truncate toward zero instead of flooring, so sample 0 leaked into
  // every window before its real one — inflating sent/collected counts
  // and recording negative RTTs for early frames.
  TopologySpec spec = small_spec();
  spec.edge.window = units::seconds(2);  // 5 windows per sample period
  FleetState fleet(spec, 9);
  TreeConfig tree;
  tree.spec = spec;
  tree.shape = spec.expand();
  tree.fleet = &fleet;
  tree.epoch = units::seconds(1);
  tree.windows = 10;  // two full sample periods

  std::map<std::pair<std::int64_t, std::int64_t>, int> seen;
  for (std::int64_t w = 0; w < tree.windows; ++w) {
    const SimTime begin = tree.epoch + w * spec.edge.window;
    const SimTime end = begin + spec.edge.window;
    tree.for_each_sample(
        0, w, [&](std::int64_t g, std::int64_t k, SimTime send, bool) {
          // Every enumerated send time really falls inside the window.
          EXPECT_GE(send, begin);
          EXPECT_LT(send, end);
          ++seen[{g, k}];
        });
  }
  // Two periods: samples 0 and 1 of each of the edge's generators, each
  // in exactly one window.
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(2 * spec.edge.fan_in));
  for (const auto& [key, count] : seen) {
    EXPECT_EQ(count, 1) << "generator " << key.first << " sample "
                        << key.second;
  }
}

// for_each_sample visits only the generators the fleet phases into each
// period the window overlaps. A brute-force walk over every generator of
// the edge and every sample index must find the same samples. The edge's
// close_window works per range instead and must agree with a fold of the
// per-sample walk.
struct WalkShape {
  const char* name;
  std::int64_t generators;
  std::int64_t fan_in;
  SimTime window;
  double loss;
};

// gtest would otherwise print the raw bytes, address of `name` included, so
// the "# GetParam() = ..." listing (and the ctest name built from it) would
// change from run to run. With indexed instances, gtest_discover_tests names
// each case Shapes/RangeWalkTest.<test>/<name>.
void PrintTo(const WalkShape& shape, std::ostream* os) { *os << shape.name; }

class RangeWalkTest : public ::testing::TestWithParam<WalkShape> {
 protected:
  RangeWalkTest() : spec_(shape_spec(GetParam())), fleet_(spec_, 5) {
    tree_.spec = spec_;
    tree_.shape = spec_.expand();
    tree_.fleet = &fleet_;
    tree_.epoch = units::seconds(1);
  }

  static TopologySpec shape_spec(const WalkShape& shape) {
    TopologySpec spec = small_spec();  // 10 s sample period
    spec.generators = shape.generators;
    spec.edge.fan_in = shape.fan_in;
    spec.edge.window = shape.window;
    spec.edge_loss = shape.loss;
    return spec;
  }

  /// At least three sample periods of windows.
  [[nodiscard]] std::int64_t windows() const {
    return (3 * spec_.sample_period + spec_.edge.window - 1) /
               spec_.edge.window +
           1;
  }

  /// The first edge and the last, which a ragged shape cuts short.
  [[nodiscard]] std::vector<std::int64_t> edges() const {
    return {0, tree_.shape.edges - 1};
  }

  TopologySpec spec_;
  FleetState fleet_;
  TreeConfig tree_;
};

TEST_P(RangeWalkTest, MatchesBruteForceWalk) {
  using Sample = std::tuple<std::int64_t, std::int64_t, SimTime, bool>;
  std::int64_t total = 0;
  std::int64_t lost_total = 0;
  for (const std::int64_t edge : edges()) {
    for (std::int64_t w = 0; w < windows(); ++w) {
      std::set<Sample> walked;
      tree_.for_each_sample(edge, w, [&](std::int64_t g, std::int64_t k,
                                         SimTime send, bool lost) {
        EXPECT_TRUE(walked.insert({g, k, send, lost}).second)
            << "generator " << g << " sample " << k << " visited twice";
      });
      const SimTime begin = tree_.epoch + w * spec_.edge.window;
      const SimTime end = begin + spec_.edge.window;
      std::set<Sample> brute;
      for (std::int64_t g = tree_.shape.generator_begin(edge);
           g < tree_.shape.generator_end(edge); ++g) {
        for (std::int64_t k = 0;; ++k) {
          const SimTime send =
              tree_.epoch + k * spec_.sample_period + fleet_.phase(g);
          if (send >= end) break;
          if (send < begin) continue;
          const bool lost = fleet_.sample_lost(g, k);
          brute.insert({g, k, send, lost});
          lost_total += lost;
        }
      }
      EXPECT_EQ(walked, brute) << "edge " << edge << " window " << w;
      total += static_cast<std::int64_t>(brute.size());
    }
  }
  EXPECT_GT(total, 0);
  EXPECT_EQ(lost_total > 0, GetParam().loss > 0.0);
}

// close_window assumes it: it takes a window's oldest sample from the
// start of the range walk.
TEST_P(RangeWalkTest, PhasesNeverDecreaseInsideAnEdge) {
  for (std::int64_t e = 0; e < tree_.shape.edges; ++e) {
    for (std::int64_t g = tree_.shape.generator_begin(e) + 1;
         g < tree_.shape.generator_end(e); ++g) {
      EXPECT_LE(fleet_.phase(g - 1), fleet_.phase(g))
          << "edge " << e << " generator " << g;
    }
  }
}

// The per-sample definition of an edge frame: the oldest send time is the
// minimum over the collected samples.
EdgeFrame fold_samples(const TreeConfig& tree, std::int64_t edge,
                       std::int64_t window, std::int64_t& generated) {
  EdgeFrame frame;
  frame.edge = edge;
  frame.window = window;
  generated = 0;
  tree.for_each_sample(edge, window, [&](std::int64_t, std::int64_t,
                                         SimTime send, bool lost) {
    ++generated;
    if (lost) return;
    if (frame.collected == 0 || send < frame.oldest_send) {
      frame.oldest_send = send;
    }
    ++frame.collected;
  });
  if (frame.collected == 0) return frame;
  frame.bytes = kFrameHeaderBytes +
                (tree.spec.edge.reduce == Reduce::kRaw
                     ? frame.collected * kSampleBytes
                     : kAggRecordBytes);
  return frame;
}

TEST_P(RangeWalkTest, CloseWindowFoldsTheSampleWalk) {
  for (const Reduce reduce : {Reduce::kRaw, Reduce::kMean}) {
    tree_.spec.edge.reduce = reduce;
    for (const std::int64_t edge : edges()) {
      const EdgeAggregator aggregator(tree_, edge);
      for (std::int64_t w = 0; w < windows(); ++w) {
        std::int64_t generated = 0;
        const EdgeFrame frame = aggregator.close_window(w, generated);
        std::int64_t expected_generated = 0;
        const EdgeFrame expected =
            fold_samples(tree_, edge, w, expected_generated);
        SCOPED_TRACE(testing::Message()
                     << "reduce " << static_cast<int>(reduce) << " edge "
                     << edge << " window " << w);
        EXPECT_EQ(generated, expected_generated);
        EXPECT_EQ(frame.edge, edge);
        EXPECT_EQ(frame.window, w);
        EXPECT_EQ(frame.collected, expected.collected);
        EXPECT_EQ(frame.oldest_send, expected.oldest_send);
        EXPECT_EQ(frame.bytes, expected.bytes);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RangeWalkTest,
    ::testing::Values(
        WalkShape{"SubPeriodWindows", 400, 20, units::seconds(2), 0.0},
        WalkShape{"WindowIsPeriod", 400, 20, units::seconds(10), 0.0},
        WalkShape{"WindowIsThreePeriods", 400, 20, units::seconds(30), 0.0},
        WalkShape{"StraddlingWindows", 400, 20, units::seconds(7), 0.0},
        WalkShape{"RaggedLastEdge", 453, 20, units::seconds(3), 0.0},
        WalkShape{"OneGeneratorLastEdge", 401, 20, units::seconds(3), 0.0},
        WalkShape{"FanInOne", 40, 1, units::seconds(2), 0.0},
        WalkShape{"Lossy", 400, 20, units::seconds(2), 0.1},
        WalkShape{"LossyStraddling", 400, 20, units::seconds(7), 0.1}));

TEST(AggregatorTest, EdgeWindowCollectsExactlyThePhasedSamples) {
  // One edge window per sample period: every generator contributes exactly
  // one sample per window, and the oldest send time matches the same
  // for_each_sample() walk the root uses.
  TopologySpec spec = small_spec();
  spec.edge.reduce = Reduce::kMean;
  FleetState fleet(spec, 9);
  TreeConfig tree;
  tree.spec = spec;
  tree.shape = spec.expand();
  tree.fleet = &fleet;
  tree.epoch = units::seconds(1);
  tree.windows = 3;

  const EdgeAggregator edge(tree, 0);
  for (std::int64_t w = 0; w < tree.windows; ++w) {
    std::int64_t generated = 0;
    const EdgeFrame frame = edge.close_window(w, generated);
    EXPECT_EQ(generated, spec.edge.fan_in);
    EXPECT_EQ(frame.collected, spec.edge.fan_in);  // lossless link
    EXPECT_EQ(frame.window, w);
    SimTime oldest = 0;
    bool first = true;
    tree.for_each_sample(0, w, [&](std::int64_t, std::int64_t, SimTime send,
                                   bool lost) {
      EXPECT_FALSE(lost);
      if (first || send < oldest) oldest = send;
      first = false;
    });
    EXPECT_EQ(frame.oldest_send, oldest);
    // Reduced frame: header plus a single aggregate record.
    EXPECT_EQ(frame.bytes, kFrameHeaderBytes + kAggRecordBytes);
  }
  EXPECT_GT(edge.close_time(0), tree.epoch + spec.edge.window);
}

TEST(AggregatorTest, RawRegionalPassesFramesThroughReducedFoldsThem) {
  TopologySpec spec = small_spec();
  spec.edge.reduce = Reduce::kRaw;
  spec.regional.reduce = Reduce::kRaw;
  FleetState fleet(spec, 9);
  TreeConfig tree;
  tree.spec = spec;
  tree.shape = spec.expand();
  tree.fleet = &fleet;
  tree.epoch = units::seconds(1);
  tree.windows = 1;

  std::vector<UpstreamFrame> published;
  RegionalAggregator raw(tree, 0,
                         [&](UpstreamFrame f) { published.push_back(f); });
  const EdgeAggregator e0(tree, 0);
  const EdgeAggregator e1(tree, 1);
  std::int64_t generated = 0;
  raw.deliver(e0.close_window(0, generated));
  raw.deliver(e1.close_window(0, generated));
  EXPECT_EQ(raw.pending(), 2);
  raw.flush();
  EXPECT_EQ(raw.pending(), 0);
  ASSERT_EQ(published.size(), 2u);  // pass-through: one publish per frame
  // Raw edge frames carry every sample record.
  EXPECT_EQ(published[0].bytes,
            kFrameHeaderBytes + spec.edge.fan_in * kSampleBytes);

  spec.edge.reduce = Reduce::kMean;
  spec.regional.reduce = Reduce::kMean;
  TreeConfig folded_tree = tree;
  folded_tree.spec = spec;
  published.clear();
  RegionalAggregator folded(folded_tree, 0,
                            [&](UpstreamFrame f) { published.push_back(f); });
  const EdgeAggregator f0(folded_tree, 0);
  const EdgeAggregator f1(folded_tree, 1);
  folded.deliver(f0.close_window(0, generated));
  folded.deliver(f1.close_window(0, generated));
  folded.flush();
  ASSERT_EQ(published.size(), 1u);  // one combined upstream frame
  EXPECT_EQ(published[0].segments.size(), 2u);
  EXPECT_EQ(published[0].collected, 2 * spec.edge.fan_in);
  EXPECT_EQ(published[0].bytes, kFrameHeaderBytes + 2 * kAggRecordBytes);
}

// OOM wall: when the server heap refuses a regional's connection, every
// generator in that regional's subtree is refused — not just the one
// backend client that failed to connect (satellite: honest loss
// accounting at fleet granularity).
TEST(HierExperimentTest, RefusedRegionalCountsDescendantGenerators) {
  core::HierConfig config;
  config.backend = core::HierBackend::kNarada;
  config.topology = small_spec();
  config.duration = units::minutes(1);
  // Enough heap for the broker baseline (46 MiB) and part of the regional
  // tier, not all of it: some of the 4 regionals (100 generators each)
  // must be turned away at ~266 KiB per connection.
  config.server_memory_budget = 47 * units::MiB;
  const core::Results results = core::run_hier_experiment(config);
  EXPECT_GT(results.refused, 0u);
  EXPECT_LT(results.refused, 400u);
  // Refusals come in whole subtrees.
  EXPECT_EQ(results.refused % 100, 0u);
  EXPECT_TRUE(results.hit_oom_wall());
  EXPECT_FALSE(results.completed);
  EXPECT_EQ(results.generators, 400);
  // The regionals that did connect still delivered their samples.
  EXPECT_GT(results.metrics.received(), 0u);
}

TEST(HierExperimentTest, FullFleetDeliversEverySample) {
  core::HierConfig config;
  config.backend = core::HierBackend::kNarada;
  config.topology = small_spec();
  config.duration = units::minutes(1);
  const core::Results results = core::run_hier_experiment(config);
  EXPECT_EQ(results.refused, 0u);
  EXPECT_TRUE(results.completed);
  EXPECT_GT(results.metrics.sent(), 0u);
  EXPECT_EQ(results.metrics.sent(), results.metrics.received());
}

// Every hier preset balances its books in closed form. Each generator
// sends one sample per 10 s period, so one virtual minute (30 two-second
// edge windows) sends 6 per generator, and every one arrives on time.
// hier/ablation/flat_10k is a flat Narada fleet, not a HierConfig.
TEST(HierExperimentTest, EveryPresetDeliversSixSamplesPerGenerator) {
  int presets = 0;
  for (const core::ScenarioSpec& spec : core::builtin_registry().all()) {
    const auto* config = std::get_if<core::HierConfig>(&spec.config);
    if (config == nullptr) continue;
    ++presets;
    SCOPED_TRACE(spec.id);
    ASSERT_EQ(config->topology.sample_period, units::seconds(10));
    ASSERT_EQ(config->topology.edge.window, units::seconds(2));
    const core::Results results =
        core::run_scenario(spec, units::minutes(1), 1);
    const auto expected =
        static_cast<std::uint64_t>(6 * config->topology.generators);
    EXPECT_EQ(results.metrics.sent(), expected);
    EXPECT_EQ(results.metrics.received(), expected);
    EXPECT_EQ(results.metrics.delivered_late(), 0u);
    EXPECT_EQ(results.refused, 0u);
  }
  EXPECT_EQ(presets, 14);
}

// The root counts a frame's samples from its segments and re-walks only
// frames whose oldest sample missed the 5 s deadline. Windows inside the
// deadline deliver nothing late; a regional window twice the edge window
// holds the oldest samples of each flush for up to 8 s, so some of them
// (not all) arrive late, and every one is still received. With a lossy
// generator link the late count must skip the lost samples too. The exact
// counts are pinned, so a change to either walk that moves them shows.
TEST(HierExperimentTest, DeliveredLateCountsOnlySamplesPastTheDeadline) {
  core::HierConfig config;
  config.backend = core::HierBackend::kNarada;
  config.topology = small_spec();
  config.topology.edge.window = units::seconds(2);
  config.topology.regional.window = units::seconds(2);
  config.duration = units::minutes(1);
  const core::Results on_time = core::run_hier_experiment(config);
  EXPECT_EQ(on_time.metrics.sent(), 2400u);
  EXPECT_EQ(on_time.metrics.received(), 2400u);
  EXPECT_EQ(on_time.metrics.delivered_late(), 0u);

  config.topology.edge.window = units::seconds(4);
  config.topology.regional.window = units::seconds(8);
  const core::Results late = core::run_hier_experiment(config);
  EXPECT_EQ(late.metrics.sent(), 2400u);
  EXPECT_EQ(late.metrics.received(), 2400u);
  EXPECT_EQ(late.metrics.delivered_late(), 966u);

  config.topology.edge_loss = 0.1;
  const core::Results lossy = core::run_hier_experiment(config);
  EXPECT_EQ(lossy.metrics.sent(), 2400u);
  EXPECT_EQ(lossy.metrics.received(), 2163u);
  EXPECT_EQ(lossy.metrics.delivered_late(), 870u);
}

}  // namespace
}  // namespace gridmon::hier
