// Cross-run regression diffing: alignment by (scenario, seed), tolerance
// semantics, direction-aware verdicts, SLO flips, schema refusal — and the
// end-to-end fixture the feature exists for: an artificially injected
// regression in a real campaign export must be flagged.
#include "core/report.hpp"

#include <string>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/registry.hpp"

namespace gridmon::core {
namespace {

// Hand-written minimal campaign documents keep the unit cases readable.
std::string doc(const std::string& runs, int schema = kCampaignSchemaVersion) {
  return "{\"schema_version\": " + std::to_string(schema) +
         ", \"kind\": \"gridmon_campaign\", \"runs\": [" + runs + "]}";
}

std::string run_obj(const char* scenario, int seed, double loss_pct,
                    double rtt_mean_ms, const char* extra = "") {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"scenario\": \"%s\", \"seed\": %d, \"loss_pct\": %.4f, "
                "\"rtt_mean_ms\": %.3f%s}",
                scenario, seed, loss_pct, rtt_mean_ms, extra);
  return buf;
}

TEST(CampaignDiff, IdenticalDocumentsAreClean) {
  const std::string text = doc(run_obj("a/b", 1, 1.0, 20.0));
  const CampaignDiff diff = diff_campaigns(text, text);
  ASSERT_TRUE(diff.comparable) << diff.error;
  EXPECT_FALSE(diff.regression);
  ASSERT_EQ(diff.runs.size(), 1u);
  EXPECT_FALSE(diff.runs[0].regression);
  EXPECT_NE(diff.table().find("1 run(s) compared: ok"), std::string::npos);
}

TEST(CampaignDiff, WorsenedMetricBeyondToleranceIsARegression) {
  const std::string base = doc(run_obj("a/b", 1, 1.0, 20.0));
  const std::string worse = doc(run_obj("a/b", 1, 1.5, 20.0));
  const CampaignDiff diff = diff_campaigns(base, worse);
  ASSERT_TRUE(diff.comparable);
  EXPECT_TRUE(diff.regression);
  EXPECT_NE(diff.table().find("REGRESSION"), std::string::npos);
  EXPECT_NE(diff.json().find("\"regression\": true"), std::string::npos);
}

TEST(CampaignDiff, ImprovementIsNotARegression) {
  const std::string base = doc(run_obj("a/b", 1, 2.0, 20.0));
  const std::string better = doc(run_obj("a/b", 1, 1.0, 15.0));
  const CampaignDiff diff = diff_campaigns(base, better);
  ASSERT_TRUE(diff.comparable);
  EXPECT_FALSE(diff.regression);
  EXPECT_NE(diff.table().find("improved"), std::string::npos);
}

TEST(CampaignDiff, DeltasWithinToleranceAreQuiet) {
  const std::string base = doc(run_obj("a/b", 1, 1.000, 20.0));
  const std::string near = doc(run_obj("a/b", 1, 1.015, 20.1));  // +1.5%
  const CampaignDiff diff = diff_campaigns(base, near);
  EXPECT_FALSE(diff.regression);
  // Tightening the tolerance flips the verdict.
  DiffOptions strict;
  strict.rel_tolerance_pct = 1.0;
  EXPECT_TRUE(diff_campaigns(base, near, strict).regression);
}

TEST(CampaignDiff, SloFlipIsARegressionEvenWhenMetricsDrift) {
  const std::string base =
      doc(run_obj("a/b", 1, 1.0, 20.0, ", \"slo_pass\": true"));
  const std::string flipped =
      doc(run_obj("a/b", 1, 1.0, 20.0, ", \"slo_pass\": false"));
  const CampaignDiff diff = diff_campaigns(base, flipped);
  ASSERT_TRUE(diff.comparable);
  EXPECT_TRUE(diff.regression);
  ASSERT_EQ(diff.runs.size(), 1u);
  EXPECT_EQ(diff.runs[0].slo_note, "pass -> FAIL");
  // The opposite flip is an improvement, not a regression.
  EXPECT_FALSE(diff_campaigns(flipped, base).regression);
}

TEST(CampaignDiff, UnalignedRunsAreReportedNotDiffed) {
  const std::string base = doc(run_obj("a/b", 1, 1.0, 20.0) + "," +
                               run_obj("a/b", 2, 1.0, 20.0));
  const std::string cand = doc(run_obj("a/b", 2, 1.0, 20.0) + "," +
                               run_obj("c/d", 1, 9.0, 90.0));
  const CampaignDiff diff = diff_campaigns(base, cand);
  ASSERT_TRUE(diff.comparable);
  EXPECT_FALSE(diff.regression);  // the aligned run is identical
  ASSERT_EQ(diff.runs.size(), 1u);
  ASSERT_EQ(diff.only_baseline.size(), 1u);
  EXPECT_EQ(diff.only_baseline[0], "a/b#1");
  ASSERT_EQ(diff.only_candidate.size(), 1u);
  EXPECT_EQ(diff.only_candidate[0], "c/d#1");
}

TEST(CampaignDiff, SchemaMismatchIsRefused) {
  const std::string v1 = doc(run_obj("a/b", 1, 1.0, 20.0));
  const std::string v2 = doc(run_obj("a/b", 1, 1.0, 20.0),
                             kCampaignSchemaVersion + 1);
  const CampaignDiff diff = diff_campaigns(v1, v2);
  EXPECT_FALSE(diff.comparable);
  EXPECT_NE(diff.error.find("schema_version mismatch"), std::string::npos);
  EXPECT_NE(diff.table().find("diff refused"), std::string::npos);
}

TEST(CampaignDiff, LegacyAndMalformedDocumentsAreRefused) {
  const std::string valid = doc(run_obj("a/b", 1, 1.0, 20.0));
  EXPECT_FALSE(diff_campaigns("[]", valid).comparable);  // legacy bare array
  EXPECT_FALSE(diff_campaigns(valid, "{not json").comparable);
  EXPECT_FALSE(
      diff_campaigns(valid, "{\"schema_version\": 1}").comparable);
}

// The refusal messages quote the key a document lacks; `diff --json` must
// escape those quotes, or the document it prints is not JSON.
TEST(CampaignDiff, RefusalJsonEscapesTheError) {
  const CampaignDiff diff =
      diff_campaigns("[]", doc(run_obj("a/b", 1, 1.0, 20.0)));
  ASSERT_FALSE(diff.comparable);
  ASSERT_NE(diff.error.find("with \"schema_version\""), std::string::npos)
      << diff.error;
  const std::string json = diff.json();
  EXPECT_NE(json.find("with \\\"schema_version\\\""), std::string::npos)
      << json;
  EXPECT_EQ(json.find("with \"schema_version\""), std::string::npos) << json;
}

// The reader decodes a \u escape of exactly four hex digits below 0x80 as
// one byte and refuses every other: "a\u00zzb" is not a, NUL, b.
TEST(CampaignDiff, MalformedUnicodeEscapeIsRefused) {
  const std::string valid = doc(run_obj("a\\u0041b", 1, 1.0, 20.0));
  const CampaignDiff diff = diff_campaigns(valid, valid);
  ASSERT_TRUE(diff.comparable) << diff.error;
  ASSERT_EQ(diff.runs.size(), 1u);
  EXPECT_EQ(diff.runs[0].scenario_id, "aAb");
  for (const char* scenario :
       {"a\\u00zzb", "a\\u00e9b", "a\\u+041b", "a\\u-041b", "a\\u004"}) {
    const std::string bad = doc(run_obj(scenario, 1, 1.0, 20.0));
    EXPECT_FALSE(diff_campaigns(bad, bad).comparable) << scenario;
  }
}

TEST(CampaignDiff, TimingMetricsAreAdvisoryOnly) {
  const std::string base =
      doc(run_obj("a/b", 1, 1.0, 20.0, ", \"wall_seconds\": 1.0"));
  const std::string slower =
      doc(run_obj("a/b", 1, 1.0, 20.0, ", \"wall_seconds\": 3.0"));
  const CampaignDiff diff = diff_campaigns(base, slower);
  ASSERT_TRUE(diff.comparable);
  // 3x slower is far past the 10% advisory threshold, but wall-clock never
  // flips the verdict.
  EXPECT_FALSE(diff.regression);
  EXPECT_NE(diff.table().find("(advisory)"), std::string::npos);
}

// End-to-end fixture: export a real campaign, inject a loss regression
// into one run, and require the diff to flag exactly that run.
TEST(CampaignDiff, FlagsInjectedRegressionInRealExport) {
  CampaignOptions options;
  options.jobs = 2;
  options.seeds = 2;
  options.duration = units::minutes(1);
  CampaignRunner runner(options);
  ASSERT_TRUE(runner.add(builtin_registry(), "narada/comparison/80"));
  const std::string baseline = runner.run().json();

  // The fixture: multiply seed 1's loss by 10 (string surgery keeps the
  // rest of the document byte-identical).
  const std::string needle = "\"seed\": 1";
  const auto run_at = baseline.find(needle);
  ASSERT_NE(run_at, std::string::npos);
  const auto loss_at = baseline.find("\"loss_pct\": ", run_at);
  ASSERT_NE(loss_at, std::string::npos);
  std::string candidate = baseline;
  candidate.insert(loss_at + std::string("\"loss_pct\": ").size(), "9");

  const CampaignDiff clean = diff_campaigns(baseline, baseline);
  ASSERT_TRUE(clean.comparable) << clean.error;
  EXPECT_FALSE(clean.regression);

  const CampaignDiff diff = diff_campaigns(baseline, candidate);
  ASSERT_TRUE(diff.comparable) << diff.error;
  EXPECT_TRUE(diff.regression);
  ASSERT_EQ(diff.runs.size(), 2u);
  EXPECT_TRUE(diff.runs[0].regression);   // seed 1: injected
  EXPECT_FALSE(diff.runs[1].regression);  // seed 2: untouched
  bool found = false;
  for (const auto& m : diff.runs[0].metrics) {
    if (m.name == "loss_pct") {
      EXPECT_TRUE(m.regression);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace gridmon::core
