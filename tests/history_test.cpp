// HistoryBuffer is the shared durability primitive behind reconnect
// backfill: a raw ring covering the last kRawWindow plus a downsampled tier
// keeping every kDownsampleKeepEvery-th sequence up to kDownsampledWindow,
// and an honest gap-replay cursor. These tests pin the retention mechanics
// the three backends all lean on: tier demotion, window eviction, wrapped
// sequences after a source restart, partial backfill when the gap outlived
// retention, and the memprof accounting that makes the memory price of
// replication visible.
#include <any>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/history.hpp"
#include "obs/memprof.hpp"

namespace gridmon::core {
namespace {

using units::seconds;

/// Collects (seq, bytes) pairs from replay_since.
struct Collector {
  std::vector<std::uint64_t> seqs;
  std::int64_t bytes = 0;

  HistoryBuffer::ReplayVisitor visitor() {
    return [this](std::uint64_t seq, const std::any&, std::int64_t b) {
      seqs.push_back(seq);
      bytes += b;
    };
  }
};

TEST(HistoryBufferTest, AppendAssignsMonotoneSequencesAndReplaysAll) {
  HistoryBuffer buffer;
  EXPECT_EQ(buffer.append(std::any{}, 10, seconds(1)), 1u);
  EXPECT_EQ(buffer.append(std::any{}, 20, seconds(2)), 2u);
  EXPECT_EQ(buffer.append(std::any{}, 30, seconds(3)), 3u);
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.stored_bytes(), 60);
  EXPECT_EQ(buffer.first_sequence(), 1u);
  EXPECT_EQ(buffer.last_sequence(), 3u);

  Collector all;
  ReplayStats stats = buffer.replay_since(0, seconds(3), all.visitor());
  EXPECT_EQ(stats.served, 3);
  EXPECT_EQ(stats.served_bytes, 60);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(all.seqs, (std::vector<std::uint64_t>{1, 2, 3}));

  Collector tail;
  stats = buffer.replay_since(2, seconds(3), tail.visitor());
  EXPECT_EQ(stats.served, 1);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(tail.seqs, (std::vector<std::uint64_t>{3}));
}

TEST(HistoryBufferTest, RawEntriesDemoteToDownsampledTier) {
  ASSERT_EQ(kRawWindow, seconds(30));
  ASSERT_EQ(kDownsampledWindow, seconds(60));
  ASSERT_EQ(kDownsampleKeepEvery, 4u);
  HistoryBuffer buffer;

  // Eight entries at t=0; prune at t=40 pushes all of them past the raw
  // window, so only every 4th sequence (4, 8) survives into the
  // downsampled tier.
  for (int i = 0; i < 8; ++i) buffer.append(std::any{}, 100, seconds(0));
  buffer.prune(seconds(40));

  Collector replay;
  ReplayStats stats = buffer.replay_since(0, seconds(40), replay.visitor());
  EXPECT_EQ(replay.seqs, (std::vector<std::uint64_t>{4, 8}));
  EXPECT_EQ(buffer.dropped(), 6);
  EXPECT_EQ(buffer.stored_bytes(), 200);
  // The downsampled survivors are a partial view of 1..8: a replay from
  // cursor 0 must say so.
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.first_available, 4u);
}

TEST(HistoryBufferTest, DownsampledWindowEvictsOldestEntirely) {
  HistoryBuffer buffer;

  // Sequences 1..4 at t=0 and 5..8 at t=45 all demote by t=80, leaving 4
  // and 8 in the downsampled tier; 4 (age 80) is then past the downsampled
  // window too, while 8 (age 35) survives.
  for (int i = 0; i < 4; ++i) buffer.append(std::any{}, 10, seconds(0));
  for (int i = 0; i < 4; ++i) buffer.append(std::any{}, 10, seconds(45));
  buffer.prune(seconds(80));

  Collector replay;
  buffer.replay_since(0, seconds(80), replay.visitor());
  EXPECT_EQ(replay.seqs, (std::vector<std::uint64_t>{8}));
  EXPECT_EQ(buffer.dropped(), 7);
}

TEST(HistoryBufferTest, ReplayAppliesTheWindowsWithoutAnAppend) {
  HistoryBuffer buffer;

  // Ten entries at 8-12.5 s and nothing after them, like an MQTT session
  // parked until 46 s: by then every entry is past the raw window, so a
  // replay must serve only the downsampled survivors (4 and 8), even
  // though no append has pruned the buffer since.
  for (int i = 0; i < 10; ++i) {
    buffer.append(std::any{}, 10, seconds(8) + units::milliseconds(500) * i);
  }
  Collector replay;
  const ReplayStats stats = buffer.replay_since(0, seconds(46),
                                                replay.visitor());
  EXPECT_EQ(replay.seqs, (std::vector<std::uint64_t>{4, 8}));
  EXPECT_EQ(stats.served, 2);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(buffer.dropped(), 8);
  EXPECT_EQ(buffer.stored_bytes(), 20);

  // Past the downsampled window nothing is left to serve.
  Collector none;
  EXPECT_EQ(buffer.replay_since(0, seconds(80), none.visitor()).served, 0);
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(HistoryBufferTest, FullyEvictedGapReportsHonestPartialBackfill) {
  HistoryBuffer buffer;

  // Sequences 1..3 at t=0 age out entirely by t=100 (none is a 4th
  // sequence, so none survives demotion); 4..6 arrive fresh.
  for (int i = 0; i < 3; ++i) buffer.append(std::any{}, 10, seconds(0));
  for (int i = 0; i < 3; ++i) buffer.append(std::any{}, 10, seconds(100));

  // A client whose cursor is 1 asks for 2..6 but 2..3 are gone: the
  // replay serves 4..6 and flags the truncation so the caller counts the
  // evicted part of the gap as lost instead of pretending it was filled.
  Collector replay;
  ReplayStats stats = buffer.replay_since(1, seconds(100), replay.visitor());
  EXPECT_EQ(replay.seqs, (std::vector<std::uint64_t>{4, 5, 6}));
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.first_available, 4u);
  EXPECT_EQ(stats.served, 3);

  // A cursor already at the oldest boundary is NOT truncated: cursor+1 ==
  // first_available means nothing in the gap was evicted.
  Collector exact;
  stats = buffer.replay_since(3, seconds(100), exact.visitor());
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(stats.served, 3);
}

TEST(HistoryBufferTest, WrappedCursorAfterSourceRestartServesEverything) {
  HistoryBuffer buffer;
  buffer.append(std::any{}, 10, seconds(1));
  buffer.append(std::any{}, 10, seconds(1));

  // The source restarted with fresh numbering, so a stale client cursor
  // (9000) is ahead of everything this buffer ever assigned. Replay treats
  // it as wrapped and serves the full retained window rather than nothing.
  Collector replay;
  ReplayStats stats = buffer.replay_since(9000, seconds(1), replay.visitor());
  EXPECT_EQ(replay.seqs, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(stats.served, 2);
}

TEST(HistoryBufferTest, AppendAtPreservesOriginNumberingAndDedups) {
  HistoryBuffer buffer;
  // A replica receiving origin-stamped entries keeps the origin numbering,
  // even when the first thing it ever sees is sequence 100.
  EXPECT_TRUE(buffer.append_at(100, std::any{}, 10, seconds(1)));
  EXPECT_EQ(buffer.first_sequence(), 100u);
  EXPECT_EQ(buffer.last_sequence(), 100u);

  // Redelivered and stale sequences are ignored (no double accounting).
  EXPECT_FALSE(buffer.append_at(100, std::any{}, 10, seconds(1)));
  EXPECT_FALSE(buffer.append_at(99, std::any{}, 10, seconds(1)));
  EXPECT_EQ(buffer.size(), 1u);
  EXPECT_EQ(buffer.stored_bytes(), 10);

  EXPECT_TRUE(buffer.append_at(101, std::any{}, 10, seconds(1)));
  // A cursor exactly at the oldest boundary minus one replays cleanly:
  // a broker restarted mid-stream retains [100, 101] and a client at 99
  // gets a complete (not truncated) backfill.
  Collector replay;
  ReplayStats stats = buffer.replay_since(99, seconds(1), replay.visitor());
  EXPECT_EQ(replay.seqs, (std::vector<std::uint64_t>{100, 101}));
  EXPECT_FALSE(stats.truncated);
}

TEST(HistoryBufferTest, MemprofAccountsRetainedBytesUnderHistory) {
  // The memprof hooks compile to nothing in a GRIDMON_OBS=OFF build.
  if (!obs::kMemEnabled) GTEST_SKIP() << "built with GRIDMON_OBS=OFF";
  obs::MemProfile profile;
  obs::ScopedMemProfile scope(&profile);
  constexpr auto kHistory = obs::MemCategory::kHistory;

  {
    HistoryBuffer buffer;
    buffer.append(std::any{}, 100, seconds(1));
    buffer.append(std::any{}, 50, seconds(1));
    EXPECT_EQ(profile.live(kHistory), 150);

    // Eviction releases accounting as it frees: sequence 1 ages past the
    // raw window and is not a 4th sequence, so the second append drops it.
    HistoryBuffer small;
    small.append(std::any{}, 50, seconds(1));
    small.append(std::any{}, 50, seconds(100));
    EXPECT_EQ(profile.live(kHistory), 200);  // 150 + one surviving 50

    // Moves transfer the accounting instead of double-counting it.
    HistoryBuffer moved(std::move(buffer));
    EXPECT_EQ(profile.live(kHistory), 200);
    EXPECT_EQ(moved.stored_bytes(), 150);
  }
  // Destruction (a crashed broker dropping its buffers) releases it all.
  EXPECT_EQ(profile.live(kHistory), 0);
  EXPECT_EQ(profile.peak(kHistory), 250);  // both 50s live before eviction
}

}  // namespace
}  // namespace gridmon::core
