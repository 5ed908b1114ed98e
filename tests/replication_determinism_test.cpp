// Reconnect backfill must not cost determinism: a `_replay` chaos twin is
// a pure function of (scenario, duration, seed) exactly like its
// recovery-only sibling, so the full CSV/JSON export — the new
// loss_after_recovery_pct and backfill_bytes columns included — is
// byte-identical whether the campaign runs on one worker thread or four.
// Pinned with a (model, kernel) golden pair over the whole replay family. The
// end-to-end contrasts pin the point of the feature: replay closes the
// disconnection gap that recovery-only leaves open, and the half-open
// registry fault is survivable only because client requests now time out.
#include <string>

#include "core/experiment.hpp"
#include "core/scenarios.hpp"
#include "golden.hpp"

namespace gridmon::core {
namespace {

// The whole replication family: one replay twin per backend, the two DBN
// fail-over/partition twins, the NIC-flap twin, and the half-open registry
// scenario that exercises the request time-outs.
TEST(ReplicationDeterminism, ReplayFamilyByteIdenticalAcrossJobs) {
  const Campaign serial = golden::jobs_check(
      {"chaos/narada/broker_crash_replay",
       "chaos/narada/dbn_broker_crash_replay",
       "chaos/narada/dbn_partition_replay", "chaos/narada/nic_flap_replay",
       "chaos/mqtt/flapping_link_replay", "chaos/rgma/servlet_restart_replay",
       "chaos/rgma/registry_halfopen"});
  EXPECT_EQ(golden::split(serial.csv()),
            (golden::Hashes{8992922572371231331ULL,
                            18437276922144914625ULL}));

  // The new columns ride at the end of the schema, after `system`.
  EXPECT_NE(serial.csv().find(",system,loss_after_recovery_pct,backfill_bytes"),
            std::string::npos);

  // Replay actually moved bytes in every backend's twin.
  for (const char* id :
       {"chaos/narada/broker_crash_replay/800", "chaos/mqtt/flapping_link_replay/800",
        "chaos/rgma/servlet_restart_replay"}) {
    const Results pooled = serial.pooled(id);
    EXPECT_GT(pooled.availability.backfill_msgs, 0u) << id;
    EXPECT_GT(pooled.availability.backfill_bytes, 0) << id;
  }
}

// End-to-end: with tiered retention on the broker, a reconnecting client
// replays the crash gap and ends the run with nothing missing, while the
// recovery-only twin (same scenario, replay off) pays the gap as loss.
TEST(ReplicationContrast, NaradaReplayClosesTheCrashGap) {
  NaradaConfig config = scenarios::narada_single(64);
  config.duration = units::minutes(1);
  config.seed = 7;
  config.fleet.recovery = true;
  config.faults.broker_crash(units::seconds(10), 0, units::seconds(5));

  config.replay = true;
  const Results with = run_narada_experiment(config);
  config.replay = false;
  const Results without = run_narada_experiment(config);

  EXPECT_GT(with.availability.backfill_msgs, 0u);
  EXPECT_GT(with.availability.backfill_bytes, 0);
  EXPECT_EQ(with.availability.lost_in_window, 0u);
  EXPECT_EQ(with.availability.lost_post_window, 0u);

  EXPECT_EQ(without.availability.backfill_msgs, 0u);
  EXPECT_GT(without.availability.lost_in_window + //
                without.availability.lost_post_window,
            0u);
  EXPECT_LT(with.metrics.loss_rate(), without.metrics.loss_rate());
}

// End-to-end: a half-open registry (accepts connections, never responds)
// would wedge every registration RPC forever; with request time-outs the
// fleet rides out the window and keeps streaming afterwards.
TEST(ReplicationContrast, RgmaRequestTimeoutsSurviveHalfOpenRegistry) {
  RgmaConfig config = scenarios::rgma_single(40);
  config.duration = units::minutes(1);
  config.seed = 7;
  config.fleet.recovery = true;
  config.registry_ttl = units::seconds(20);
  config.request_timeout = units::seconds(2);
  config.faults.registry_half_open(units::seconds(10), units::seconds(20),
                                   FaultAnchor::kRunStart);

  const Results results = run_rgma_experiment(config);
  EXPECT_EQ(results.availability.fault_events, 1u);
  EXPECT_GT(results.metrics.received(), 0u);
  // The fleet kept (re-)registering through and after the outage instead
  // of hanging on the first unanswered request.
  EXPECT_GT(results.availability.reregistrations, 0u);
}

}  // namespace
}  // namespace gridmon::core
