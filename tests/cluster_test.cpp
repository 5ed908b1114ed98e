#include <gtest/gtest.h>

#include "cluster/costs.hpp"
#include "cluster/cpu.hpp"
#include "cluster/heap.hpp"
#include "cluster/host.hpp"
#include "cluster/hydra.hpp"
#include "cluster/jvm.hpp"
#include "cluster/vmstat.hpp"

namespace gridmon::cluster {
namespace {

TEST(Cpu, ExecutesAfterDemand) {
  sim::Simulation sim;
  Cpu cpu(sim);
  SimTime done_at = -1;
  cpu.execute(units::milliseconds(5), [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_EQ(done_at, units::milliseconds(5));
  EXPECT_EQ(cpu.busy_time(), units::milliseconds(5));
}

TEST(Cpu, JobsQueueFifo) {
  sim::Simulation sim;
  Cpu cpu(sim);
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    cpu.execute(units::milliseconds(10),
                [&] { completions.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], units::milliseconds(10));
  EXPECT_EQ(completions[1], units::milliseconds(20));
  EXPECT_EQ(completions[2], units::milliseconds(30));
}

TEST(Cpu, StallOccupiesTheCore) {
  sim::Simulation sim;
  Cpu cpu(sim);
  cpu.stall(units::milliseconds(100));  // GC pause
  SimTime done_at = -1;
  cpu.execute(units::milliseconds(1), [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_EQ(done_at, units::milliseconds(101));
}

TEST(Cpu, BacklogAndIdleReset) {
  sim::Simulation sim;
  Cpu cpu(sim);
  EXPECT_EQ(cpu.backlog(), 0);
  cpu.charge(units::milliseconds(4));
  EXPECT_EQ(cpu.backlog(), units::milliseconds(4));
  sim.run_until(units::milliseconds(10));
  EXPECT_EQ(cpu.backlog(), 0);
  // After idle time, a new job starts immediately.
  SimTime done_at = -1;
  cpu.execute(units::milliseconds(2), [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_EQ(done_at, units::milliseconds(12));
}

TEST(Cpu, NegativeDemandClampsToZero) {
  sim::Simulation sim;
  Cpu cpu(sim);
  const SimTime end = cpu.execute(-5, nullptr);
  EXPECT_EQ(end, 0);
}

TEST(Heap, AllocateAndRelease) {
  Heap heap(1000);
  EXPECT_TRUE(heap.allocate(400));
  EXPECT_TRUE(heap.allocate(600));
  EXPECT_EQ(heap.used(), 1000);
  EXPECT_FALSE(heap.allocate(1));
  EXPECT_EQ(heap.failed_allocations(), 1u);
  heap.release(500);
  EXPECT_TRUE(heap.allocate(500));
  EXPECT_EQ(heap.peak(), 1000);
}

TEST(Heap, OccupancyAndOverRelease) {
  Heap heap(1000);
  EXPECT_DOUBLE_EQ(heap.occupancy(), 0.0);
  ASSERT_TRUE(heap.allocate(250));
  EXPECT_DOUBLE_EQ(heap.occupancy(), 0.25);
  heap.release(9999);  // clamps at zero
  EXPECT_EQ(heap.used(), 0);
}

TEST(Heap, FailedAllocationChangesNothing) {
  Heap heap(100);
  ASSERT_TRUE(heap.allocate(90));
  EXPECT_FALSE(heap.allocate(20));
  EXPECT_EQ(heap.used(), 90);
  EXPECT_EQ(heap.peak(), 90);
}

TEST(Host, SpawnThreadsUntilOom) {
  sim::Simulation sim;
  HostConfig config;
  config.memory_budget = 64 * units::MiB;
  config.enable_gc = false;
  Host host(sim, 0, "test", config);
  int spawned = 0;
  while (host.spawn_thread()) ++spawned;
  // Budget minus the 46 MiB baseline over 232 KiB stacks ≈ 79 threads.
  EXPECT_GT(spawned, 60);
  EXPECT_LT(spawned, 100);
  EXPECT_EQ(host.threads(), spawned);
  host.exit_thread();
  EXPECT_EQ(host.threads(), spawned - 1);
  EXPECT_TRUE(host.spawn_thread());
}

TEST(Host, LoadedInflatesWithThreads) {
  sim::Simulation sim;
  HostConfig config;
  config.enable_gc = false;
  Host host(sim, 0, "test", config);
  const SimTime base = units::microseconds(1000);
  EXPECT_EQ(host.loaded(base, 0.001), base);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(host.spawn_thread());
  EXPECT_EQ(host.loaded(base, 0.001), 2 * base);
}

TEST(Jvm, GcPausesScaleWithOccupancy) {
  sim::Simulation sim;
  Cpu cpu_idle_heap(sim);
  Heap low(1024 * units::MiB);
  Jvm jvm_low(sim, cpu_idle_heap, low, sim.rng_stream("low"));
  jvm_low.start();

  Cpu cpu_full_heap(sim);
  Heap high(1024 * units::MiB);
  ASSERT_TRUE(high.allocate(900 * units::MiB));
  Jvm jvm_high(sim, cpu_full_heap, high, sim.rng_stream("high"));
  jvm_high.start();

  sim.run_until(units::minutes(30));
  // More collections and more total pause at high occupancy.
  EXPECT_GT(jvm_high.minor_collections() + jvm_high.full_collections(),
            jvm_low.minor_collections() + jvm_low.full_collections());
  EXPECT_GT(jvm_high.total_pause_time(), jvm_low.total_pause_time());
  EXPECT_GT(jvm_high.full_collections(), 0u);
  EXPECT_EQ(jvm_low.full_collections(), 0u);
}

TEST(Jvm, StopHaltsCollections) {
  sim::Simulation sim;
  Cpu cpu(sim);
  Heap heap(units::MiB);
  Jvm jvm(sim, cpu, heap, sim.rng_stream("x"));
  jvm.start();
  sim.run_until(units::minutes(5));
  jvm.stop();
  const auto collections = jvm.minor_collections();
  sim.run_until(units::minutes(10));
  EXPECT_EQ(jvm.minor_collections(), collections);
}

TEST(Vmstat, IdleAndMemoryMetrics) {
  sim::Simulation sim;
  HostConfig config;
  config.enable_gc = false;
  Host host(sim, 0, "test", config);
  VmstatSampler sampler(host);
  sampler.start();
  // Load the CPU 50% for 10 seconds: 0.5 s demand every 1 s.
  sim::PeriodicTimer load(sim, 0, units::seconds(1), [&] {
    host.cpu().charge(units::milliseconds(500));
  });
  // Allocate 100 MiB halfway through.
  sim.schedule_at(units::seconds(5), [&] {
    ASSERT_TRUE(host.heap().allocate(100 * units::MiB));
  });
  sim.run_until(units::seconds(10));
  load.cancel();
  sampler.stop();
  EXPECT_NEAR(sampler.mean_cpu_idle(), 50.0, 2.0);
  EXPECT_EQ(sampler.memory_consumption(), 100 * units::MiB);
  EXPECT_EQ(sampler.samples().size(), 10u);
}

TEST(Vmstat, NoSamplesMeansFullyIdle) {
  sim::Simulation sim;
  Host host(sim, 0, "test", HostConfig{.enable_gc = false});
  VmstatSampler sampler(host);
  EXPECT_DOUBLE_EQ(sampler.mean_cpu_idle(), 100.0);
  EXPECT_EQ(sampler.memory_consumption(), 0);
}

TEST(Hydra, BuildsEightNodeTestbed) {
  Hydra hydra;
  EXPECT_EQ(hydra.node_count(), 8);
  EXPECT_EQ(hydra.lan().node_count(), 8);
  EXPECT_EQ(hydra.host(0).name(), "hydra1");
  EXPECT_EQ(hydra.host(7).name(), "hydra8");
  EXPECT_GT(hydra.host(0).heap().used(), 0);  // JVM baseline charged
  const std::string description = hydra.describe();
  EXPECT_NE(description.find("8 nodes"), std::string::npos);
  EXPECT_NE(description.find("100"), std::string::npos);
}

TEST(Hydra, SeedPropagatesToSimulation) {
  Hydra a(HydraConfig{.seed = 5});
  Hydra b(HydraConfig{.seed = 5});
  EXPECT_EQ(a.sim().rng_stream("t").next_u64(),
            b.sim().rng_stream("t").next_u64());
}

TEST(Costs, FootprintsProduceThePaperWalls) {
  // Narada: 1 GiB budget / (stack + buffers) per connection → wall between
  // 3000 and 4000 connections.
  const std::int64_t narada_conns =
      (costs::kJvmHeapBudget - costs::kJvmBaselineBytes) /
      (costs::kThreadStackBytes + costs::kConnectionBufferBytes);
  EXPECT_GT(narada_conns, 3000);
  EXPECT_LT(narada_conns, 4000);
  // R-GMA: heavier per-producer footprint → wall between 600 and 800.
  const std::int64_t rgma_conns =
      (costs::kJvmHeapBudget - costs::kJvmBaselineBytes) /
      costs::kRgmaConnectionBytes;
  EXPECT_GT(rgma_conns, 600);
  EXPECT_LT(rgma_conns, 800);
}

}  // namespace
}  // namespace gridmon::cluster
