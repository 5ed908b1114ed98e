// Chaos runs must be exactly as deterministic as fault-free ones: a
// FaultPlan fires at fixed virtual times off kernel timers, so a chaos
// campaign is a pure function of (scenario, duration, seed) and its full
// CSV and JSON exports — availability columns included — are byte-identical
// whether the campaign runs on one worker thread or four. These tests pin
// that with a (model, kernel) golden pair per scenario family (recovery +
// no-recovery baseline + the `_replay` backfill twin, which the prefix also
// matches).
#include "golden.hpp"

namespace gridmon::core {
namespace {

TEST(ChaosDeterminism, BrokerCrashByteIdenticalAcrossJobs) {
  const Campaign serial = golden::jobs_check({"chaos/narada/broker_crash"});
  EXPECT_EQ(golden::split(serial.csv()),
            (golden::Hashes{16710559656801894223ULL,
                            4132096230754851259ULL}));
}

TEST(ChaosDeterminism, ServletRestartByteIdenticalAcrossJobs) {
  const Campaign serial = golden::jobs_check({"chaos/rgma/servlet_restart"});
  EXPECT_EQ(golden::split(serial.csv()),
            (golden::Hashes{10493296542855874743ULL,
                            7179942499874615729ULL}));
}

}  // namespace
}  // namespace gridmon::core
