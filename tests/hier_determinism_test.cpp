// The hierarchical tier must not cost determinism: a hier run synthesises
// per-sample state from flyweight seeds on both the edge and the root side,
// so the full campaign CSV/JSON export — generators column, per-frame RTT
// percentiles, mem_hier peaks — is byte-identical whether the campaign runs
// on one worker thread or four. Pinned with (model, kernel) golden pairs
// over the 10k sweep plus the flat/tree/edge ablation, and over the 1m
// sweep. A GRIDMON_OBS=OFF build has its own model hashes: the hier
// presets turn memprof on, so the mem_* and peak_model_bytes columns are
// zero there. The kernel hashes are one value each: the obs sampling tick is
// an observer event, which the kernel's stats leave out.
#include <string>

#include "golden.hpp"

namespace gridmon::core {
namespace {

// The 10k sweep over all three backends plus the architecture ablation.
constexpr golden::Hashes kTenKFamily{
    obs::kEnabled ? 3898896309111868083ULL : 4145483652480948764ULL,
    4181359545427214711ULL};

TEST(HierDeterminism, TenKFamilyByteIdenticalAcrossJobs) {
  const Campaign serial = golden::jobs_check(
      {"hier/narada/10k", "hier/rgma/10k", "hier/mqtt/10k",
       "hier/ablation/flat_10k", "hier/ablation/tree_10k",
       "hier/ablation/edge_10k"});
  EXPECT_EQ(golden::split(serial.csv()), kTenKFamily);

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

// The 1m sweep over all three backends: 500-generator edges under 25-edge
// regionals. It pins edge synthesis and the root's per-sample accounting at
// the fan-ins no other tier-1 test reaches: 12 million samples in
// 500-generator edge windows. The 50k and 200k scales stay out of tier-1 —
// `gridmon_cli report hier_scale` covers them.
constexpr golden::Hashes kMillionSweep{
    obs::kEnabled ? 17397813402345333078ULL : 978167539287251957ULL,
    16273750095623845881ULL};

TEST(HierDeterminism, MillionScaleByteIdenticalAcrossJobs) {
  const Campaign serial =
      golden::jobs_check({"hier/narada/1m", "hier/rgma/1m", "hier/mqtt/1m"});
  EXPECT_EQ(golden::split(serial.csv()), kMillionSweep);
}

}  // namespace
}  // namespace gridmon::core
