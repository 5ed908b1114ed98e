#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace gridmon::sim {
namespace {

TEST(Simulation, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.queue_size(), 0u);
}

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulation, SameTimeEventsRunInInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, ScheduleAfterIsRelative) {
  Simulation sim;
  SimTime fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulation, PastTimesClampToNow) {
  Simulation sim;
  SimTime fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_at(10, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Simulation, NegativeDelayClampsToZero) {
  Simulation sim;
  SimTime fired_at = -1;
  sim.schedule_at(42, [&] {
    sim.schedule_after(-100, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 42);
}

TEST(Simulation, RunUntilStopsAtHorizonInclusive) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  sim.schedule_at(21, [&] { ++fired; });
  const auto executed = sim.run_until(20);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.queue_size(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, RunUntilAdvancesClockWhenQueueDrains) {
  Simulation sim;
  sim.schedule_at(5, [] {});
  sim.run_until(1000);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  const ScheduledEvent event = sim.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(event.pending());
  event.cancel();
  EXPECT_FALSE(event.pending());
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.kernel_stats().events_executed, 0u);
}

TEST(Simulation, CancelAfterFiringIsHarmless) {
  Simulation sim;
  bool fired = false;
  const ScheduledEvent event = sim.schedule_at(10, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(event.pending());
  event.cancel();  // no effect, no crash
}

// A default token names no event. The first event of a run sits in slab
// node 0, the index a default token holds, and must be left alone.
TEST(Simulation, DefaultHandleIsInert) {
  Simulation sim;
  bool fired = false;
  const ScheduledEvent live = sim.schedule_at(10, [&] { fired = true; });
  const ScheduledEvent inert;
  EXPECT_FALSE(inert.pending());
  inert.cancel();
  EXPECT_TRUE(live.pending());
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulation, StopHaltsTheLoop) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  // A subsequent run resumes.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventsExecutedCounts) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulation, RngStreamsAreSeeded) {
  Simulation a(42);
  Simulation b(42);
  Simulation c(43);
  EXPECT_EQ(a.rng_stream("x").next_u64(), b.rng_stream("x").next_u64());
  EXPECT_NE(a.rng_stream("x").next_u64(), c.rng_stream("x").next_u64());
  EXPECT_EQ(a.seed(), 42u);
}

TEST(Simulation, EventsScheduledDuringRunExecute) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_after(1, recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99);
}

TEST(PeriodicTimer, FiresAtEveryPeriod) {
  Simulation sim;
  std::vector<SimTime> fire_times;
  PeriodicTimer timer(sim, 10, 5, [&] { fire_times.push_back(sim.now()); });
  sim.run_until(30);
  EXPECT_EQ(fire_times, (std::vector<SimTime>{10, 15, 20, 25, 30}));
}

TEST(PeriodicTimer, CancelStopsFutureFirings) {
  Simulation sim;
  int fired = 0;
  PeriodicTimer timer(sim, 10, 10, [&] {
    if (++fired == 3) timer.cancel();
  });
  sim.run_until(1000);
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(timer.active());
}

TEST(PeriodicTimer, DestructionCancels) {
  Simulation sim;
  int fired = 0;
  {
    PeriodicTimer timer(sim, 1, 1, [&] { ++fired; });
    sim.run_until(3);
  }
  sim.run_until(100);
  EXPECT_EQ(fired, 3);
}

TEST(PeriodicTimer, DefaultConstructedIsInactive) {
  PeriodicTimer timer;
  EXPECT_FALSE(timer.active());
  timer.cancel();  // no crash
}

TEST(PeriodicTimer, MoveKeepsFiring) {
  Simulation sim;
  int fired = 0;
  PeriodicTimer timer;
  timer = PeriodicTimer(sim, 5, 5, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 4);
}

// Regression: move-assigning over an active timer must cancel the old one.
// The old Impl is kept alive by the shared_ptr its scheduled event captures,
// so without the cancel it would re-arm (and fire) forever.
TEST(PeriodicTimer, MoveAssignOverActiveTimerCancelsIt) {
  Simulation sim;
  int old_fired = 0;
  int new_fired = 0;
  PeriodicTimer timer(sim, 5, 5, [&] { ++old_fired; });
  timer = PeriodicTimer(sim, 7, 7, [&] { ++new_fired; });
  sim.run_until(70);
  EXPECT_EQ(old_fired, 0);
  EXPECT_EQ(new_fired, 10);
  EXPECT_TRUE(timer.active());
}

TEST(ScheduledEvent, TokenCancelsWithoutMaterialisingAHandle) {
  Simulation sim;
  bool fired = false;
  ScheduledEvent event = sim.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(event.pending());
  event.cancel();
  EXPECT_FALSE(event.pending());
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.kernel_stats().handles_materialised, 0u);
}

TEST(ScheduledEvent, DefaultTokenIsInert) {
  ScheduledEvent event;
  EXPECT_FALSE(event.pending());
  event.cancel();  // no crash
}

// The generation check: a token held past its event's firing must become
// inert, even once the slab recycles the node for an unrelated event.
TEST(ScheduledEvent, StaleTokenCannotCancelARecycledNode) {
  Simulation sim;
  bool first = false;
  bool second = false;
  ScheduledEvent stale = sim.schedule_at(1, [&] { first = true; });
  sim.run_until(1);
  EXPECT_TRUE(first);
  EXPECT_FALSE(stale.pending());
  // The freshly recycled node is on top of the free list, so this event
  // reuses exactly the slot `stale` still points at.
  ScheduledEvent fresh = sim.schedule_at(2, [&] { second = true; });
  stale.cancel();
  EXPECT_TRUE(fresh.pending());
  sim.run_until(2);
  EXPECT_TRUE(second);
}

TEST(Simulation, FarFutureEventsInterleaveWithNearOnes) {
  Simulation sim;
  std::vector<int> order;
  // 30 s and 60 s are far beyond the ~4.3 s wheel window: both take the
  // overflow heap and re-home as the cursor advances (or jump it).
  sim.schedule_at(units::seconds(60), [&] { order.push_back(3); });
  sim.schedule_at(units::seconds(5), [&] { order.push_back(1); });
  sim.schedule_at(units::seconds(30), [&] { order.push_back(2); });
  sim.schedule_at(units::milliseconds(1), [&] { order.push_back(0); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now(), units::seconds(60));
  EXPECT_GT(sim.kernel_stats().overflow_events, 0u);
}

TEST(Simulation, KernelStatsCountTheRun) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run();
  const KernelStats stats = sim.kernel_stats();
  EXPECT_EQ(stats.events_executed, 5u);
  EXPECT_EQ(stats.peak_queue_depth, 5u);
  EXPECT_EQ(stats.callback_heap_allocs, 0u);
  EXPECT_EQ(stats.handles_materialised, 0u);
  EXPECT_EQ(stats.slab_chunks, 1u);
}

TEST(Simulation, ObserverEventsStayOutOfKernelStats) {
  Simulation sim;
  std::uint64_t seen_at_15 = 0;
  sim.schedule_at(5, [] {}, EventKind::kObserver);
  sim.schedule_at(10, [] {});
  // An observer reading the kernel stats (the obs tick's kernel_events
  // gauge) sees the one model event before it.
  sim.schedule_at(
      15, [&] { seen_at_15 = sim.kernel_stats().events_executed; },
      EventKind::kObserver);
  sim.schedule_at(20, [] {});
  sim.schedule_at(25, [] {}, EventKind::kObserver).cancel();
  EXPECT_EQ(sim.kernel_stats().peak_queue_depth, 2u);
  sim.run();
  EXPECT_EQ(seen_at_15, 1u);
  EXPECT_EQ(sim.events_executed(), 4u);  // the raw count includes observers
  EXPECT_EQ(sim.kernel_stats().events_executed, 2u);
  // The cancelled observer left the queue too: model depth counts from 0.
  for (int i = 0; i < 3; ++i) sim.schedule_after(1, [] {});
  EXPECT_EQ(sim.kernel_stats().peak_queue_depth, 3u);
}

TEST(Simulation, SlabRecyclesNodesAcrossALongChain) {
  Simulation sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5000) sim.schedule_after(1, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(fired, 5000);
  // One outstanding event at a time: the whole chain reuses one chunk.
  EXPECT_EQ(sim.kernel_stats().slab_chunks, 1u);
}

TEST(EventFn, SmallCapturesLiveInline) {
  int out = 0;
  const std::uint64_t a = 1;
  const std::uint64_t b = 2;
  const std::uint64_t c = 3;
  EventFn fn([&out, a, b, c] { out = static_cast<int>(a + b + c); });
  EXPECT_FALSE(fn.on_heap());
  EventFn moved = std::move(fn);
  EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move): moved-from is empty
  moved();
  EXPECT_EQ(out, 6);
}

TEST(EventFn, LargeCapturesSpillToTheHeap) {
  std::array<std::uint64_t, 16> big{};
  big[15] = 7;
  int out = 0;
  EventFn fn([big, &out] { out = static_cast<int>(big[15]); });
  EXPECT_TRUE(fn.on_heap());
  EventFn moved = std::move(fn);
  moved();
  EXPECT_EQ(out, 7);
}

TEST(EventFn, NonTrivialCapturesAreMovedAndDestroyed) {
  auto token = std::make_shared<int>(42);
  {
    EventFn fn([token] { (void)*token; });
    EXPECT_FALSE(fn.on_heap());  // 16 bytes: inline, but not trivial
    EXPECT_EQ(token.use_count(), 2);
    EventFn moved = std::move(fn);
    EXPECT_EQ(token.use_count(), 2);  // moved, not copied
    moved();
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace gridmon::sim
