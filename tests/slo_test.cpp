// SLO engine: spec builders, burn-rate evaluation semantics, scope
// handling, and the determinism contract for the campaign SLO columns.
#include "obs/slo.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "core/report.hpp"
#include "golden.hpp"

namespace gridmon::obs {
namespace {

TEST(SloSpec, FluentBuildersAccumulate) {
  SloSpec spec;
  EXPECT_TRUE(spec.empty());
  spec.max_loss_pct(5.0)
      .max_loss_pct(1.0, SloScope::kSteady)
      .max_deadline_miss_pct(0.2)
      .max_ttr_ms(30000.0)
      .min_availability_pct(99.0);
  ASSERT_EQ(spec.objectives.size(), 5u);
  EXPECT_FALSE(spec.empty());
  EXPECT_EQ(spec.objectives[0].kind, SloObjective::Kind::kLossPct);
  EXPECT_EQ(spec.objectives[0].scope, SloScope::kWholeRun);
  EXPECT_EQ(spec.objectives[1].scope, SloScope::kSteady);
  EXPECT_EQ(spec.objectives[4].kind, SloObjective::Kind::kAvailabilityPct);
}

SloInput steady_input() {
  SloInput input;
  input.sent = 1000;
  input.received = 990;  // 1% loss
  input.delivered_late = 5;
  input.duration_ms = 60000.0;
  return input;
}

TEST(SloEvaluate, EmptySpecIsNotEvaluated) {
  const SloReport report = evaluate_slo(SloSpec{}, steady_input());
  EXPECT_FALSE(report.evaluated);
  EXPECT_TRUE(report.pass);
  EXPECT_TRUE(report.checks.empty());
}

TEST(SloEvaluate, CeilingBurnIsMeasuredOverBound) {
  SloSpec spec;
  spec.max_loss_pct(2.0);  // measured 1% -> burn 0.5
  const SloReport report = evaluate_slo(spec, steady_input());
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_TRUE(report.evaluated);
  EXPECT_TRUE(report.pass);
  EXPECT_DOUBLE_EQ(report.checks[0].measured, 1.0);
  EXPECT_DOUBLE_EQ(report.checks[0].burn, 0.5);
  EXPECT_EQ(report.worst_violation(), "ok");

  spec = SloSpec{};
  spec.max_loss_pct(0.5);  // burn 2.0 -> violated
  const SloReport fail = evaluate_slo(spec, steady_input());
  EXPECT_FALSE(fail.pass);
  EXPECT_DOUBLE_EQ(fail.worst_burn, 2.0);
  EXPECT_NE(fail.worst_violation().find("loss_pct"), std::string::npos);
}

TEST(SloEvaluate, ZeroBoundClampsToMaxBurn) {
  SloSpec spec;
  spec.max_loss_pct(0.0);
  const SloReport report = evaluate_slo(spec, steady_input());
  EXPECT_FALSE(report.pass);
  EXPECT_DOUBLE_EQ(report.worst_burn, kMaxBurn);

  // Zero bound with zero measurement passes (burn 0).
  SloInput clean = steady_input();
  clean.received = clean.sent;
  const SloReport ok = evaluate_slo(spec, clean);
  EXPECT_TRUE(ok.pass);
  EXPECT_DOUBLE_EQ(ok.worst_burn, 0.0);
}

TEST(SloEvaluate, LossScopesPartitionTheLosses) {
  SloInput input = steady_input();
  // 10 lost total: 6 in fault windows, 3 in the fault tail, 1 steady.
  input.lost_in_window = 6;
  input.lost_post_window = 3;

  SloSpec whole;
  whole.max_loss_pct(100.0);
  SloSpec steady;
  steady.max_loss_pct(100.0, SloScope::kSteady);
  SloSpec windows;
  windows.max_loss_pct(100.0, SloScope::kFaultWindows);

  EXPECT_DOUBLE_EQ(evaluate_slo(whole, input).checks[0].measured, 1.0);
  EXPECT_DOUBLE_EQ(evaluate_slo(steady, input).checks[0].measured, 0.1);
  EXPECT_DOUBLE_EQ(evaluate_slo(windows, input).checks[0].measured, 0.6);
}

TEST(SloEvaluate, DeadlineMissUsesLateDeliveries) {
  SloSpec spec;
  spec.max_deadline_miss_pct(1.0);  // 5/990 received ~ 0.51% -> pass
  const SloReport report = evaluate_slo(spec, steady_input());
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_TRUE(report.pass);
  EXPECT_DOUBLE_EQ(report.checks[0].measured, 100.0 * 5.0 / 990.0);
}

TEST(SloEvaluate, TtrEvaluatesPerWindowWorstWins) {
  SloInput input = steady_input();
  input.ttr_ms = 25000.0;
  input.ttr_windows_ms = {4000.0, 25000.0, 9000.0};
  SloSpec spec;
  spec.max_ttr_ms(10000.0);
  const SloReport report = evaluate_slo(spec, input);
  // One check per outage window.
  ASSERT_EQ(report.checks.size(), 3u);
  EXPECT_EQ(report.checks[0].window, 0);
  EXPECT_EQ(report.checks[1].window, 1);
  EXPECT_TRUE(report.checks[0].pass);
  EXPECT_FALSE(report.checks[1].pass);
  EXPECT_TRUE(report.checks[2].pass);
  EXPECT_FALSE(report.pass);
  EXPECT_DOUBLE_EQ(report.worst_burn, 2.5);
  EXPECT_NE(report.worst_violation().find("[w1]"), std::string::npos);
}

TEST(SloEvaluate, TtrFallsBackToAggregateWithoutWindows) {
  SloInput input = steady_input();
  input.ttr_ms = 5000.0;
  SloSpec spec;
  spec.max_ttr_ms(10000.0);
  const SloReport report = evaluate_slo(spec, input);
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_EQ(report.checks[0].window, -1);
  EXPECT_TRUE(report.pass);
}

TEST(SloEvaluate, AvailabilityFloorBurnsTheErrorBudget) {
  SloInput input = steady_input();
  input.downtime_ms = 3000.0;  // 5% down over 60 s -> 95% available
  SloSpec spec;
  spec.min_availability_pct(90.0);  // budget 10%, used 5% -> burn 0.5
  const SloReport report = evaluate_slo(spec, input);
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_DOUBLE_EQ(report.checks[0].measured, 95.0);
  EXPECT_DOUBLE_EQ(report.checks[0].burn, 0.5);
  EXPECT_TRUE(report.pass);

  spec = SloSpec{};
  spec.min_availability_pct(99.0);  // budget 1%, used 5% -> burn 5
  const SloReport fail = evaluate_slo(spec, input);
  EXPECT_FALSE(fail.pass);
  EXPECT_DOUBLE_EQ(fail.worst_burn, 5.0);
}

TEST(SloEvaluate, WorstBurnIsTheMaxAcrossChecks) {
  SloInput input = steady_input();
  input.downtime_ms = 3000.0;
  SloSpec spec;
  spec.max_loss_pct(2.0).min_availability_pct(90.0).max_deadline_miss_pct(1.0);
  const SloReport report = evaluate_slo(spec, input);
  EXPECT_TRUE(report.pass);
  // Burns: loss 0.5, availability 0.5, deadline-miss 5/990 over 1% ~ 0.505.
  EXPECT_DOUBLE_EQ(report.worst_burn, 100.0 * 5.0 / 990.0);
}

}  // namespace
}  // namespace gridmon::obs

namespace gridmon::core {
namespace {

// The chaos catalogue's CI-gate fixture: recovery twin holds its SLO, the
// no-recovery baseline violates it — at any duration (TTR pins at the
// horizon without recovery).
TEST(SloScenarios, BrokerCrashTwinsSeparate) {
  const auto& registry = builtin_registry();
  const ScenarioSpec* recovery = registry.find("chaos/narada/broker_crash/800");
  const ScenarioSpec* baseline =
      registry.find("chaos/narada/broker_crash/800_norecovery");
  ASSERT_NE(recovery, nullptr);
  ASSERT_NE(baseline, nullptr);
  ASSERT_FALSE(recovery->slo.empty());

  const Results with = run_scenario(*recovery, units::minutes(1), 1, {});
  const Results without = run_scenario(*baseline, units::minutes(1), 1, {});
  EXPECT_TRUE(with.slo.evaluated);
  EXPECT_TRUE(with.slo.pass) << with.slo.worst_violation();
  EXPECT_TRUE(without.slo.evaluated);
  EXPECT_FALSE(without.slo.pass);
  EXPECT_GT(without.slo.worst_burn, 1.0);
}

TEST(SloScenarios, ScenariosWithoutSpecStayUnevaluated) {
  const auto& registry = builtin_registry();
  const ScenarioSpec* plain = registry.find("narada/single/400");
  ASSERT_NE(plain, nullptr);
  EXPECT_TRUE(plain->slo.empty());
}

// The slo_determinism ctest entry: SLO verdict columns are a pure function
// of (scenario, duration, seed) and byte-identical across worker counts.
TEST(SloDeterminism, SloColumnsByteIdenticalAcrossJobs) {
  const std::string serial =
      golden::jobs_check({"chaos/narada/broker_crash"}).csv();
  // The verdict columns carry real verdicts, not placeholders: both twins
  // are present, so both outcomes appear.
  EXPECT_NE(serial.find(",1,"), std::string::npos);
  EXPECT_NE(serial.find(",0,3.889,"), std::string::npos);
}

}  // namespace
}  // namespace gridmon::core
