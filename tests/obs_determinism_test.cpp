// The observability pipeline inherits the campaign determinism contract:
// the sampled Timeline rides the same virtual-clock event loop as the
// models and the span sampler is a hash of message identity (no RNG), so
// every per-run series CSV and trace export is a pure function of
// (scenario, duration, seed) — byte-identical whether the campaign runs
// on one worker thread or four: `--jobs 1` vs `--jobs 4` series CSVs must
// match byte for byte, chaos scenarios included.
#include <cstdint>
#include <string>
#include <vector>

#include "golden.hpp"
#include "obs/export.hpp"

namespace gridmon::core {
namespace {

// Every test here asserts on obs output, which a GRIDMON_OBS=OFF build
// never produces.
#define GRIDMON_REQUIRE_OBS() \
  if (!obs::kEnabled) GTEST_SKIP() << "built with GRIDMON_OBS=OFF"

struct RunExports {
  std::string label;  ///< "<scenario id>#<seed>"
  std::string series_csv;
  std::string trace_json;
};

std::vector<RunExports> exports(const Campaign& campaign) {
  std::vector<RunExports> out;
  for (const auto& record : campaign.runs()) {
    RunExports run{record.scenario_id + "#" + std::to_string(record.seed),
                   "", ""};
    if (record.results.obs) {
      run.series_csv = obs::series_csv(*record.results.obs);
      run.trace_json = obs::chrome_trace_json(*record.results.obs);
    }
    out.push_back(std::move(run));
  }
  return out;
}

// Two campaigns of `entry` on different worker counts export the same
// series and traces, run by run.
void expect_same_exports(const char* entry, int jobs_a, int jobs_b) {
  obs::Options traced;
  traced.enabled = true;
  traced.span_sample_every = 8;
  const auto a = exports(golden::run({entry}, jobs_a, traced));
  const auto b = exports(golden::run({entry}, jobs_b, traced));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_FALSE(a[i].series_csv.empty()) << a[i].label;
    EXPECT_EQ(a[i].series_csv, b[i].series_csv) << a[i].label;
    EXPECT_EQ(a[i].trace_json, b[i].trace_json) << a[i].label;
  }
}

TEST(ObsDeterminism, ChaosSeriesByteIdenticalAcrossJobs) {
  GRIDMON_REQUIRE_OBS();
  expect_same_exports("chaos/narada/broker_crash", 1, 4);
}

TEST(ObsDeterminism, SteadyStateSeriesByteIdenticalAcrossJobs) {
  GRIDMON_REQUIRE_OBS();
  expect_same_exports("narada/comparison/80", 1, 4);
  // The fixed-window Web-Services ablation runs on the scaffold too.
  expect_same_exports("ablation/webservices/", 1, 4);
}

TEST(ObsDeterminism, SameSeedSameSeriesAcrossCampaigns) {
  GRIDMON_REQUIRE_OBS();
  // Two independent campaigns at the same settings reproduce the exact
  // same exports (no hidden process-global state).
  expect_same_exports("chaos/rgma/servlet_restart", 2, 3);
}

struct ExportGolden {
  const char* label;  ///< "<scenario id>#<seed>"
  std::uint64_t series_csv;
  std::uint64_t trace_json;
};

// One run per backend and harness shape (steady state, hier, chaos with
// replay), with obs and memprof on. The hashes pin the whole export: gauge
// column order, every mem_* column, the point the MemProfile was installed
// at, span marks and chaos tracks.
constexpr ExportGolden kExportGoldens[] = {
    {"narada/comparison/80#1", 18345702780659521921ULL,
     9271460134286950593ULL},
    {"narada/comparison/80#2", 17654236836752689568ULL,
     2271445070085576741ULL},
    {"rgma/single/100#1", 11039294968274505017ULL,
     17848994105123168666ULL},
    {"rgma/single/100#2", 5378326370322612669ULL,
     10052245214075442978ULL},
    {"mqtt/qos1/800#1", 14810133996700102235ULL,
     11616385072864528843ULL},
    {"mqtt/qos1/800#2", 1879014752388831039ULL,
     13700677411317488227ULL},
    // Series rerecorded when hier phases moved to one slot per generator
    // of an edge: frames now arrive in every 2 s window, and mem_hier no
    // longer holds per-generator fleet arrays.
    {"hier/narada/10k#1", 11292938252603645172ULL,
     18088963067110442184ULL},
    {"hier/narada/10k#2", 12999445857577579632ULL,
     18088963067110442184ULL},
    {"chaos/mqtt/flapping_link_replay/800#1", 818904030774466776ULL,
     17914703032507385578ULL},
    {"chaos/mqtt/flapping_link_replay/800#2", 9018142812364848156ULL,
     1967008498153270515ULL},
    {"chaos/rgma/servlet_restart_replay#1", 15059568717286994312ULL,
     13578750937371944062ULL},
    {"chaos/rgma/servlet_restart_replay#2", 12586944108453958937ULL,
     1882390007581995528ULL},
};

TEST(ObsDeterminism, ExportsMatchGoldenHashes) {
  GRIDMON_REQUIRE_OBS();
  obs::Options memprof;
  memprof.enabled = true;
  const auto runs = exports(golden::run(
      {"narada/comparison/80", "rgma/single/100", "mqtt/qos1/800",
       "hier/narada/10k", "chaos/mqtt/flapping_link_replay/800",
       "chaos/rgma/servlet_restart_replay"},
      4, memprof));
  ASSERT_EQ(runs.size(), std::size(kExportGoldens));
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].label, kExportGoldens[i].label);
    ASSERT_FALSE(runs[i].series_csv.empty()) << runs[i].label;
    EXPECT_EQ(golden::fnv1a(runs[i].series_csv), kExportGoldens[i].series_csv)
        << runs[i].label << " series";
    EXPECT_EQ(golden::fnv1a(runs[i].trace_json), kExportGoldens[i].trace_json)
        << runs[i].label << " trace";
  }
}

}  // namespace
}  // namespace gridmon::core
