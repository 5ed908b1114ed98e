// The hierarchical tier must not cost determinism: a hier run synthesises
// per-sample state from flyweight seeds on both the edge and the root side,
// so the full campaign CSV/JSON export — generators column, per-frame RTT
// percentiles, mem_hier peaks — is byte-identical whether the campaign runs
// on one worker thread or four. Pinned with FNV-1a golden hashes over the
// 10k sweep plus the flat/tree/edge ablation, and over the 1m sweep, at
// 1 virtual minute, seeds {1, 2}.
#include <cstdint>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/registry.hpp"

namespace gridmon::core {
namespace {

std::uint64_t fnv1a(const std::string& data) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// The 10k sweep over all three backends plus the architecture ablation.
constexpr const char* kHierScenarios[] = {
    "hier/narada/10k",
    "hier/rgma/10k",
    "hier/mqtt/10k",
    "hier/ablation/flat_10k",
    "hier/ablation/tree_10k",
    "hier/ablation/edge_10k",
};

/// The 1m sweep over all three backends: 500-generator edges under 25-edge
/// regionals. The 50k and 200k scales stay out of tier-1 — `gridmon_cli
/// report hier_scale` covers them.
constexpr const char* kMillionScenarios[] = {
    "hier/narada/1m",
    "hier/rgma/1m",
    "hier/mqtt/1m",
};

Campaign hier_campaign(std::span<const char* const> ids, int jobs) {
  CampaignOptions options;
  options.jobs = jobs;
  options.seeds = 2;
  options.duration = units::minutes(1);
  CampaignRunner runner(options);
  for (const char* id : ids) {
    EXPECT_TRUE(runner.add(builtin_registry(), id)) << id;
  }
  return runner.run();
}

// Golden hash recorded from the jobs=1 run at the settings above. If a
// code change moves it, every hier metric moved with it — rerecord only
// when the shift is understood and intended. A GRIDMON_OBS=OFF build has
// its own golden: the hier presets turn memprof on, so the mem_* and
// peak_model_bytes columns are zero there. Last rerecorded when phases
// moved to one slot per generator of an edge: every 2 s window now
// carries a frame (wire bytes), and the fleet holds no per-generator
// arrays (peak_model_bytes).
constexpr std::uint64_t kGoldenHierFamily =
    obs::kEnabled ? 10844277123711822149ULL : 18393468989594166698ULL;

TEST(HierDeterminism, TenKFamilyByteIdenticalAcrossJobs) {
  const Campaign serial = hier_campaign(kHierScenarios, 1);
  const Campaign parallel = hier_campaign(kHierScenarios, 4);
  EXPECT_EQ(serial.csv(), parallel.csv());
  EXPECT_EQ(serial.json(), parallel.json());
  EXPECT_EQ(fnv1a(serial.csv()), kGoldenHierFamily)
      << "actual hash: " << fnv1a(serial.csv());

  // The fleet-size column rides at the end of the schema.
  EXPECT_NE(serial.csv().find(",backfill_bytes,generators"),
            std::string::npos);

  // The ablation's point, pinned end-to-end: the flat fleet hits the heap
  // wall and refuses most generators; the hierarchical arms hold the whole
  // fleet with a fraction of the model footprint.
  const Results flat = serial.pooled("hier/ablation/flat_10k");
  const Results edge = serial.pooled("hier/ablation/edge_10k");
  EXPECT_TRUE(flat.hit_oom_wall());
  // Pooled refusals sum across the two seeds: > 5000 per seed.
  EXPECT_GT(flat.refused, 10000u);
  EXPECT_EQ(edge.refused, 0u);
  ASSERT_GT(edge.generators, 0);
  ASSERT_EQ(edge.generators, flat.generators);
  // Bytes per generator, an order of magnitude apart — and the flat arm
  // only ever held ~40% of the fleet. (GRIDMON_OBS=OFF compiles memprof
  // out, so both footprints read zero there.)
  if (obs::kEnabled) {
    EXPECT_LT(10 * edge.mem.peak_total / edge.generators,
              flat.mem.peak_total / flat.generators);
  }
}

// Golden hash of the 1m sweep's jobs=1 CSV, recorded like
// kGoldenHierFamily and with its own GRIDMON_OBS=OFF value. It pins edge
// synthesis and the root's per-sample accounting at the fan-ins no other
// tier-1 test reaches: 12 million samples in 500-generator edge windows.
constexpr std::uint64_t kGoldenHierMillion =
    obs::kEnabled ? 9860323585007252484ULL : 16835268463713996865ULL;

TEST(HierDeterminism, MillionScaleByteIdenticalAcrossJobs) {
  const Campaign serial = hier_campaign(kMillionScenarios, 1);
  const Campaign parallel = hier_campaign(kMillionScenarios, 4);
  EXPECT_EQ(serial.csv(), parallel.csv());
  EXPECT_EQ(serial.json(), parallel.json());
  EXPECT_EQ(fnv1a(serial.csv()), kGoldenHierMillion)
      << "actual hash: " << fnv1a(serial.csv());
}

}  // namespace
}  // namespace gridmon::core
