// The observability pipeline inherits the campaign determinism contract:
// the sampled Timeline rides the same virtual-clock event loop as the
// models and the span sampler is a hash of message identity (no RNG), so
// every per-run series CSV and trace export is a pure function of
// (scenario, duration, seed) — byte-identical whether the campaign runs
// on one worker thread or four. The golden determinism gate of
// ISSUE/DESIGN: `--jobs 1` vs `--jobs 4` series CSVs must match byte for
// byte, chaos scenarios included.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/registry.hpp"
#include "obs/export.hpp"

namespace gridmon::core {
namespace {

// Every test here asserts on obs output, which a GRIDMON_OBS=OFF build
// never produces.
#define GRIDMON_REQUIRE_OBS() \
  if (!obs::kEnabled) GTEST_SKIP() << "built with GRIDMON_OBS=OFF"

struct RunExports {
  std::string label;
  std::string series_csv;
  std::string trace_json;
};

std::vector<RunExports> campaign_exports(const char* prefix, int jobs) {
  CampaignOptions options;
  options.jobs = jobs;
  options.seeds = 2;
  options.duration = units::minutes(1);
  options.obs.enabled = true;
  options.obs.span_sample_every = 8;
  CampaignRunner runner(options);
  EXPECT_GT(runner.add_matching(builtin_registry(), prefix), 0);
  const Campaign campaign = runner.run();

  std::vector<RunExports> out;
  for (const auto& record : campaign.runs()) {
    RunExports exports;
    exports.label =
        record.scenario_id + "#" + std::to_string(record.seed);
    if (record.results.obs) {
      exports.series_csv = obs::series_csv(*record.results.obs);
      exports.trace_json = obs::chrome_trace_json(*record.results.obs);
    }
    out.push_back(std::move(exports));
  }
  return out;
}

void expect_byte_identical(const char* prefix) {
  const auto serial = campaign_exports(prefix, 1);
  const auto parallel = campaign_exports(prefix, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].label, parallel[i].label);
    EXPECT_FALSE(serial[i].series_csv.empty()) << serial[i].label;
    EXPECT_EQ(serial[i].series_csv, parallel[i].series_csv)
        << serial[i].label;
    EXPECT_EQ(serial[i].trace_json, parallel[i].trace_json)
        << serial[i].label;
  }
}

TEST(ObsDeterminism, ChaosSeriesByteIdenticalAcrossJobs) {
  GRIDMON_REQUIRE_OBS();
  expect_byte_identical("chaos/narada/broker_crash");
}

TEST(ObsDeterminism, SteadyStateSeriesByteIdenticalAcrossJobs) {
  GRIDMON_REQUIRE_OBS();
  expect_byte_identical("narada/comparison/80");
  // The fixed-window Web-Services ablation runs on the scaffold too.
  expect_byte_identical("ablation/webservices/");
}

TEST(ObsDeterminism, SameSeedSameSeriesAcrossCampaigns) {
  GRIDMON_REQUIRE_OBS();
  // Two independent campaigns at the same settings reproduce the exact
  // same exports (no hidden process-global state).
  const auto first = campaign_exports("chaos/rgma/servlet_restart", 2);
  const auto second = campaign_exports("chaos/rgma/servlet_restart", 3);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].series_csv, second[i].series_csv) << first[i].label;
    EXPECT_EQ(first[i].trace_json, second[i].trace_json) << first[i].label;
  }
}

std::uint64_t fnv1a(const std::string& data) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

struct ExportGolden {
  const char* label;  ///< "<scenario id>#<seed>"
  std::uint64_t series_csv;
  std::uint64_t trace_json;
};

// One run per backend and harness shape (steady state, hier, chaos with
// replay), with obs and memprof on, 1 virtual minute, seeds {1, 2}. The
// hashes pin the whole export: gauge column order, every mem_* column,
// the point the MemProfile was installed at, span marks and chaos tracks.
// Rerecord only when the shift is understood and intended.
constexpr ExportGolden kExportGoldens[] = {
    {"narada/comparison/80#1", 5961224837063345680ULL,
     9271460134286950593ULL},
    {"narada/comparison/80#2", 15732425890595483384ULL,
     2271445070085576741ULL},
    {"rgma/single/100#1", 8686140751912329001ULL,
     17848994105123168666ULL},
    {"rgma/single/100#2", 9233968172910405211ULL,
     10052245214075442978ULL},
    {"mqtt/qos1/800#1", 304368251969534571ULL,
     11616385072864528843ULL},
    {"mqtt/qos1/800#2", 13903330743890695420ULL,
     13700677411317488227ULL},
    // Series rerecorded when hier phases moved to one slot per generator
    // of an edge: frames now arrive in every 2 s window, and mem_hier no
    // longer holds per-generator fleet arrays.
    {"hier/narada/10k#1", 3828083588950818053ULL,
     18088963067110442184ULL},
    {"hier/narada/10k#2", 4009112112202257033ULL,
     18088963067110442184ULL},
    {"chaos/mqtt/flapping_link_replay/800#1", 15577803216617313020ULL,
     17914703032507385578ULL},
    {"chaos/mqtt/flapping_link_replay/800#2", 15690117025811845856ULL,
     1967008498153270515ULL},
    {"chaos/rgma/servlet_restart_replay#1", 1196124081461388407ULL,
     13578750937371944062ULL},
    {"chaos/rgma/servlet_restart_replay#2", 13858388162160825837ULL,
     1882390007581995528ULL},
};

TEST(ObsDeterminism, ExportsMatchGoldenHashes) {
  GRIDMON_REQUIRE_OBS();
  CampaignOptions options;
  options.jobs = 4;
  options.seeds = 2;
  options.duration = units::minutes(1);
  options.obs.enabled = true;
  options.obs.memprof = true;
  CampaignRunner runner(options);
  for (const char* id :
       {"narada/comparison/80", "rgma/single/100", "mqtt/qos1/800",
        "hier/narada/10k", "chaos/mqtt/flapping_link_replay/800",
        "chaos/rgma/servlet_restart_replay"}) {
    ASSERT_TRUE(runner.add(builtin_registry(), id)) << id;
  }
  const Campaign campaign = runner.run();
  ASSERT_EQ(campaign.runs().size(), std::size(kExportGoldens));
  for (std::size_t i = 0; i < campaign.runs().size(); ++i) {
    const RunRecord& record = campaign.runs()[i];
    const std::string label =
        record.scenario_id + "#" + std::to_string(record.seed);
    EXPECT_EQ(label, kExportGoldens[i].label);
    ASSERT_TRUE(record.results.obs) << label;
    const std::uint64_t series = fnv1a(obs::series_csv(*record.results.obs));
    const std::uint64_t trace =
        fnv1a(obs::chrome_trace_json(*record.results.obs));
    EXPECT_EQ(series, kExportGoldens[i].series_csv)
        << label << " series hash: " << series;
    EXPECT_EQ(trace, kExportGoldens[i].trace_json)
        << label << " trace hash: " << trace;
  }
}

}  // namespace
}  // namespace gridmon::core
