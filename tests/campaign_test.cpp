// The campaign runner: registry coverage, deterministic parallel fan-out.
#include "core/campaign.hpp"

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/figures.hpp"
#include "core/registry.hpp"
#include "core/scenarios.hpp"

namespace gridmon::core {
namespace {

// Every id in DESIGN.md §4's experiment index must resolve — each bench
// binary and the CLI address scenarios only through these names.
const std::vector<std::string> kSection4Ids = {
    // Table II + Figs 3-4 + §III.E loss
    "narada/comparison/udp", "narada/comparison/udp_cli",
    "narada/comparison/nio", "narada/comparison/tcp",
    "narada/comparison/triple", "narada/comparison/80",
    // Figs 6-8 + Table III + Fig 15
    "narada/single/400", "narada/single/500", "narada/single/800",
    "narada/single/1000", "narada/single/2000", "narada/single/3000",
    "narada/single/4000",
    // Figs 6, 7, 9 + Table III
    "narada/dbn/2000", "narada/dbn/3000", "narada/dbn/4000",
    "narada/dbn/5000",
    // Ablation: the fixed broadcast deficiency
    "narada/dbn_routed/2000", "narada/dbn_routed/3000",
    "narada/dbn_routed/4000",
    // Ablation: transport x ack matrix
    "narada/matrix/tcp/auto", "narada/matrix/tcp/client",
    "narada/matrix/nio/auto", "narada/matrix/nio/client",
    "narada/matrix/udp/auto", "narada/matrix/udp/client",
    // Ablation: delivery quality
    "narada/persistent/800",
    // Figs 11-13 + Table III + Fig 15
    "rgma/single/100", "rgma/single/200", "rgma/single/400",
    "rgma/single/600", "rgma/single/800",
    // Figs 11, 13, 14 + Table III
    "rgma/distributed/200", "rgma/distributed/400", "rgma/distributed/600",
    "rgma/distributed/800", "rgma/distributed/1000",
    // Fig 10
    "rgma/secondary/50", "rgma/secondary/100", "rgma/secondary/200",
    // Ablation: deliberate delay sweep
    "rgma/secondary_delay/0", "rgma/secondary_delay/5",
    "rgma/secondary_delay/15", "rgma/secondary_delay/30",
    // §III.F loss + delivery-quality ablations
    "rgma/no_warmup", "rgma/https/200", "rgma/legacy/200",
    // Gateway-publisher ablations (fixed 120 s window)
    "ablation/aggregation/1", "ablation/aggregation/2",
    "ablation/aggregation/4", "ablation/aggregation/8",
    "ablation/aggregation/16", "ablation/aggregation/32",
    "ablation/webservices/binary", "ablation/webservices/soap",
    // MQTT modern baseline (DESIGN.md §4)
    "mqtt/single/400", "mqtt/single/800", "mqtt/single/2000",
    "mqtt/single/4000", "mqtt/qos0/800", "mqtt/qos1/800", "mqtt/qos2/800",
    "mqtt/highrate/100", "mqtt/gateway/40x20", "mqtt/mixed/900",
    // Chaos: fault injection + recovery (DESIGN.md §5)
    "chaos/narada/broker_crash/800", "chaos/narada/broker_crash/800_norecovery",
    "chaos/narada/dbn_partition", "chaos/narada/nic_flap/400",
    "chaos/narada/udp_loss_burst/800",
    "chaos/mqtt/flapping_link/800", "chaos/mqtt/flapping_link/800_qos0",
    "chaos/mqtt/broker_crash/800", "chaos/mqtt/broker_crash/800_norecovery",
    "chaos/rgma/registry_outage/400",
    "chaos/rgma/registry_outage/400_norecovery", "chaos/rgma/servlet_restart",
    "chaos/rgma/servlet_restart_norecovery",
    // Replication: reconnect backfill twins + half-open registry
    // (DESIGN.md §5)
    "chaos/narada/broker_crash_replay/800",
    "chaos/narada/dbn_broker_crash_replay", "chaos/narada/dbn_partition_replay",
    "chaos/narada/nic_flap_replay/400", "chaos/mqtt/flapping_link_replay/800",
    "chaos/rgma/servlet_restart_replay", "chaos/rgma/registry_halfopen/400",
    // Hierarchical aggregation scale sweeps + architecture ablation
    // (DESIGN.md §5)
    "hier/narada/10k", "hier/narada/50k", "hier/narada/200k",
    "hier/narada/1m", "hier/rgma/10k", "hier/rgma/50k", "hier/rgma/200k",
    "hier/rgma/1m", "hier/mqtt/10k", "hier/mqtt/50k", "hier/mqtt/200k",
    "hier/mqtt/1m", "hier/ablation/flat_10k", "hier/ablation/tree_10k",
    "hier/ablation/edge_10k",
};

TEST(RegistryTest, ResolvesEveryDesignSection4Id) {
  const auto& registry = builtin_registry();
  for (const auto& id : kSection4Ids) {
    EXPECT_NE(registry.find(id), nullptr) << "missing scenario id: " << id;
  }
  // The catalogue holds exactly this set — a new scenario must be added to
  // the enumeration above (and to DESIGN.md §4).
  EXPECT_EQ(registry.size(), kSection4Ids.size());
}

TEST(RegistryTest, FindAndMatch) {
  const auto& registry = builtin_registry();
  const auto* spec = registry.find("narada/single/400");
  ASSERT_NE(spec, nullptr);
  EXPECT_STREQ(spec->system(), "narada");
  EXPECT_EQ(registry.find("narada/single/999"), nullptr);

  EXPECT_EQ(registry.match("narada/comparison/").size(), 6u);
  EXPECT_EQ(registry.match("rgma/secondary_delay/").size(), 4u);
  EXPECT_TRUE(registry.match("no/such/prefix").empty());
  EXPECT_STREQ(registry.find("ablation/webservices/soap")->system(),
               "narada");
  EXPECT_STREQ(registry.find("mqtt/single/800")->system(), "mqtt");
  EXPECT_STREQ(registry.find("rgma/single/100")->system(), "rgma");
}

TEST(RegistryTest, MatchEdgeCases) {
  ScenarioRegistry reg;
  reg.add({"mqtt/qos1/800", "a", scenarios::mqtt_single(800, 1)});
  reg.add({"mqtt/qos1/8000", "b", scenarios::mqtt_single(8000, 1)});
  reg.add({"mqtt/qos2/800", "c", scenarios::mqtt_single(800, 2)});

  // The empty prefix matches the whole catalogue.
  EXPECT_EQ(reg.match("").size(), 3u);
  // An exact id is its own prefix — and a strict prefix of a longer id
  // also matches, so an id that prefixes another returns both.
  EXPECT_EQ(reg.match("mqtt/qos2/800").size(), 1u);
  EXPECT_EQ(reg.match("mqtt/qos1/800").size(), 2u);
  // A prefix longer than any id matches nothing (no out-of-range access).
  EXPECT_TRUE(reg.match("mqtt/qos2/800/extra").empty());

  // Duplicate ids are rejected with the offending id in the message.
  try {
    reg.add({"mqtt/qos1/800", "dup", scenarios::mqtt_single(800, 1)});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate scenario id"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("mqtt/qos1/800"),
              std::string::npos);
  }
}

TEST(RegistryTest, RunScenarioOverridesMqttDurationAndSeed) {
  // Same contract as the Narada twin below: the embedded MqttConfig is
  // paper-faithful (30 min); run_scenario must apply the campaign's
  // duration and seed instead.
  ScenarioSpec spec{"test/mqtt/small", "small mqtt run",
                    scenarios::mqtt_single(40, /*qos=*/1)};
  const Results a = run_scenario(spec, units::minutes(1), 7);
  const Results b = run_scenario(spec, units::minutes(1), 7);
  const Results c = run_scenario(spec, units::minutes(1), 8);
  EXPECT_GT(a.metrics.sent(), 0u);
  EXPECT_EQ(a.metrics.sent(), b.metrics.sent());
  EXPECT_EQ(a.metrics.rtt_mean_ms(), b.metrics.rtt_mean_ms());
  // A different seed shifts warm-up jitter: some metric must differ.
  EXPECT_NE(a.metrics.rtt_mean_ms(), c.metrics.rtt_mean_ms());
}

TEST(RegistryTest, RunScenarioOverridesDurationAndSeed) {
  // The spec's embedded config is paper-faithful (30 min); run_scenario
  // must apply the campaign's duration and seed instead.
  ScenarioSpec spec{"test/small", "small narada run",
                    scenarios::narada_single(40)};
  const Results a = run_scenario(spec, units::minutes(1), 7);
  const Results b = run_scenario(spec, units::minutes(1), 7);
  const Results c = run_scenario(spec, units::minutes(1), 8);
  EXPECT_GT(a.metrics.sent(), 0u);
  EXPECT_EQ(a.metrics.sent(), b.metrics.sent());
  EXPECT_EQ(a.metrics.rtt_mean_ms(), b.metrics.rtt_mean_ms());
  // A different seed shifts warm-up jitter: some metric must differ.
  EXPECT_NE(a.metrics.rtt_mean_ms(), c.metrics.rtt_mean_ms());
}

CampaignRunner make_runner(int jobs) {
  CampaignOptions options;
  options.jobs = jobs;
  options.seeds = 2;
  options.duration = units::minutes(1);
  CampaignRunner runner(options);
  runner.add(ScenarioSpec{"test/narada/60", "small narada",
                          scenarios::narada_single(60)});
  runner.add(ScenarioSpec{"test/rgma/40", "small rgma",
                          scenarios::rgma_single(40)});
  return runner;
}

TEST(CampaignTest, ParallelJobsProduceByteIdenticalResults) {
  // The API's core promise: --jobs 1 and --jobs 4 yield byte-identical
  // exports — Results are a pure function of (scenario, duration, seed)
  // and ordering follows the queue, not completion.
  auto serial_runner = make_runner(1);
  auto parallel_runner = make_runner(4);
  const Campaign serial = serial_runner.run();
  const Campaign parallel = parallel_runner.run();

  ASSERT_EQ(serial.runs().size(), 4u);
  ASSERT_EQ(parallel.runs().size(), 4u);
  EXPECT_EQ(serial.csv(), parallel.csv());
  EXPECT_EQ(serial.json(), parallel.json());

  // Spot-check the ordering contract directly.
  EXPECT_EQ(serial.runs()[0].scenario_id, "test/narada/60");
  EXPECT_EQ(serial.runs()[0].seed, 1u);
  EXPECT_EQ(serial.runs()[1].seed, 2u);
  EXPECT_EQ(serial.runs()[2].scenario_id, "test/rgma/40");
  for (std::size_t i = 0; i < serial.runs().size(); ++i) {
    EXPECT_EQ(parallel.runs()[i].scenario_id, serial.runs()[i].scenario_id);
    EXPECT_EQ(parallel.runs()[i].seed, serial.runs()[i].seed);
    EXPECT_EQ(parallel.runs()[i].results.metrics.sent(),
              serial.runs()[i].results.metrics.sent());
  }
}

TEST(CampaignTest, ProgressReportsEveryRunExactlyOnce) {
  CampaignOptions options;
  options.jobs = 4;
  options.seeds = 2;
  options.duration = units::minutes(1);
  std::atomic<int> calls{0};
  int max_done = 0;
  options.progress = [&](int done, int total, const RunRecord& record) {
    // Serialised by the runner, so plain reads/writes are safe here.
    calls.fetch_add(1);
    EXPECT_EQ(total, 4);
    EXPECT_GE(done, 1);
    EXPECT_LE(done, total);
    EXPECT_FALSE(record.scenario_id.empty());
    if (done > max_done) max_done = done;
  };
  CampaignRunner runner(options);
  runner.add(ScenarioSpec{"test/narada/60", "small narada",
                          scenarios::narada_single(60)});
  runner.add(ScenarioSpec{"test/rgma/40", "small rgma",
                          scenarios::rgma_single(40)});
  EXPECT_EQ(runner.total_runs(), 4);
  const Campaign campaign = runner.run();
  EXPECT_EQ(calls.load(), 4);
  EXPECT_EQ(max_done, 4);
  EXPECT_EQ(campaign.runs().size(), 4u);
}

TEST(CampaignTest, RepetitionsPoolSeeds) {
  CampaignOptions options;
  options.jobs = 2;
  options.seeds = 2;
  options.duration = units::minutes(1);
  CampaignRunner runner(options);
  runner.add(ScenarioSpec{"test/narada/60", "small narada",
                          scenarios::narada_single(60)});
  const Campaign campaign = runner.run();

  const auto records = campaign.records("test/narada/60");
  ASSERT_EQ(records.size(), 2u);
  const Results pooled = campaign.pooled("test/narada/60");
  EXPECT_EQ(pooled.metrics.sent(), records[0]->results.metrics.sent() +
                                       records[1]->results.metrics.sent());
  EXPECT_TRUE(campaign.records("no/such/id").empty());
}

TEST(CampaignTest, AddFromRegistry) {
  CampaignOptions options;
  CampaignRunner runner(options);
  const auto& registry = builtin_registry();
  EXPECT_TRUE(runner.add(registry, "narada/single/400"));
  EXPECT_FALSE(runner.add(registry, "narada/single/999"));
  EXPECT_EQ(runner.add_matching(registry, "rgma/secondary/"), 3);
  EXPECT_EQ(runner.scenarios().size(), 4u);
}

TEST(CampaignTest, ReAddedIdRunsOnce) {
  // An id plus a prefix that covers it: the id is queued once, in its first
  // position, so pooling counts each run's samples once.
  CampaignOptions options;
  options.seeds = 1;
  options.duration = units::minutes(1);
  const auto& registry = builtin_registry();
  CampaignRunner runner(options);
  EXPECT_TRUE(runner.add(registry, "narada/comparison/80"));
  EXPECT_EQ(runner.add_matching(registry, "narada/comparison/"), 5);
  EXPECT_TRUE(runner.add(registry, "narada/comparison/80"));
  ASSERT_EQ(runner.scenarios().size(), 6u);
  EXPECT_EQ(runner.scenarios().front().id, "narada/comparison/80");

  CampaignRunner single(options);
  single.add(registry, "narada/comparison/80");
  const Campaign campaign = runner.run();
  const Campaign one = single.run();
  ASSERT_EQ(campaign.records("narada/comparison/80").size(), 1u);
  EXPECT_GT(one.pooled("narada/comparison/80").metrics.sent(), 0u);
  EXPECT_EQ(campaign.pooled("narada/comparison/80").metrics.sent(),
            one.pooled("narada/comparison/80").metrics.sent());
}

TEST(CampaignTest, CsvShapeIsStable) {
  CampaignOptions options;
  options.seeds = 1;
  options.duration = units::minutes(1);
  CampaignRunner runner(options);
  runner.add(ScenarioSpec{"test/narada/60", "small narada",
                          scenarios::narada_single(60)});
  const Campaign campaign = runner.run();
  const std::string csv = campaign.csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "scenario,seed,sent,received,loss_pct,rtt_mean_ms,rtt_stddev_ms,"
            "rtt_p95_ms,rtt_p99_ms,rtt_p100_ms,cpu_idle_pct,memory_mib,"
            "events_forwarded,wire_bytes,refused,completed,sim_events,"
            "peak_queue_depth,cb_heap_allocs,handle_allocs,faults,"
            "downtime_ms,ttr_ms,lost_in_window,lost_post_window,late,"
            "reconnects,resubscribes,reregistrations,slo_pass,"
            "slo_worst_burn,peak_model_bytes,system,loss_after_recovery_pct,"
            "backfill_bytes,generators");
  EXPECT_NE(csv.find("test/narada/60,1,"), std::string::npos);
  // The backend name, replication columns and fleet size close every row;
  // a fault-free run reports 0.0000 residual loss and no backfill.
  EXPECT_EQ(
      csv.substr(csv.size() - std::string(",narada,0.0000,0,60\n").size()),
      ",narada,0.0000,0,60\n");
}

// --- Figure catalogue (`gridmon_cli report`) -------------------------------

TEST(FigureCatalogue, NamesAreUniqueAndEveryIdResolves) {
  const std::vector<std::string> expected = {
      "table1", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10",
      "fig11", "fig12", "fig13", "fig14", "fig15", "table3",
      "rgma_warmup_loss", "ablation_dbn_routing", "ablation_ack_transport",
      "ablation_sp_delay", "ablation_aggregation", "ablation_webservices",
      "ablation_delivery_modes", "chaos_recovery", "mqtt_qos", "replication",
      "hier_scale"};
  // `report all` prints the catalogue in order, each figure once.
  std::vector<std::string> names;
  std::set<std::string> all_ids;
  for (const Figure& figure : figure_catalogue()) {
    names.push_back(figure.name);
    EXPECT_EQ(find_figure(figure.name), &figure);
    for (const auto& id : figure.scenario_ids()) {
      EXPECT_NE(builtin_registry().find(id), nullptr)
          << figure.name << " reads unknown scenario " << id;
      all_ids.insert(id);
    }
  }
  EXPECT_EQ(names, expected);
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size());
  EXPECT_EQ(find_figure("all"), nullptr);
  EXPECT_EQ(all_ids.size(), 96u);
}

const std::vector<std::string> kSharedFigures = {
    "fig3", "fig4", "fig15", "table3", "rgma_warmup_loss",
    "ablation_webservices"};

/// Queue `names` the way `gridmon_cli report` does: one campaign, each id
/// once, series-only obs on.
CampaignRunner queue_figures(const std::vector<std::string>& names,
                             int jobs) {
  CampaignOptions options;
  options.jobs = jobs;
  options.seeds = 2;
  options.duration = units::minutes(1);
  options.obs.enabled = true;
  options.obs.span_sample_every = 0;
  CampaignRunner runner(options);
  for (const auto& name : names) {
    for (const auto& id : find_figure(name)->scenario_ids()) {
      EXPECT_TRUE(runner.add(builtin_registry(), id));
    }
  }
  return runner;
}

std::string render_figures(const std::vector<std::string>& names, int jobs) {
  CampaignRunner runner = queue_figures(names, jobs);
  const Campaign campaign = runner.run();
  const FigureContext context{campaign, 1, 2};
  std::string out;
  for (const auto& name : names) {
    out += render_figure(*find_figure(name), context);
  }
  return out;
}

TEST(FigureCatalogue, RenderIsByteIdenticalAcrossJobs) {
  const std::string serial = render_figures(kSharedFigures, 1);
  EXPECT_EQ(serial, render_figures(kSharedFigures, 4));
  EXPECT_NE(serial.find("Table II + Fig 3"), std::string::npos);
  EXPECT_NE(serial.find("SOAP (WS proxy)"), std::string::npos);
}

TEST(FigureCatalogue, SharedPointsRunOnce) {
  // The six figures read 24 ids (what their separate binaries ran); the
  // points they share run once.
  std::size_t read = 0;
  for (const auto& name : kSharedFigures) {
    read += find_figure(name)->scenario_ids().size();
  }
  EXPECT_EQ(read, 24u);
  EXPECT_EQ(queue_figures(kSharedFigures, 1).scenarios().size(), 16u);
}

}  // namespace
}  // namespace gridmon::core
