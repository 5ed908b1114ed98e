#include "core/figures.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <utility>

#include "cluster/costs.hpp"
#include "cluster/hydra.hpp"
#include "core/report.hpp"
#include "obs/export.hpp"
#include "obs/memprof.hpp"
#include "util/chart.hpp"
#include "util/table.hpp"

namespace gridmon::core {

namespace {

using Cells = std::vector<std::string>;

[[gnu::format(printf, 1, 2)]] std::string strf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list sizing;
  va_copy(sizing, args);
  std::string out(
      static_cast<std::size_t>(std::vsnprintf(nullptr, 0, format, sizing)),
      '\0');
  va_end(sizing);
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

std::string fmt(double value, int precision = 2) {
  return util::TextTable::format(value, precision);
}

std::string header(const FigureContext& context, std::string_view title,
                   std::string_view caption) {
  const std::string rule =
      "================================================================\n";
  return "\n" + rule + std::string(title) + " — " + std::string(caption) +
         strf("\n(virtual duration %d min per test, %d seed(s))\n",
              context.minutes, context.seeds) +
         rule;
}

std::string table_text(const util::TextTable& table) {
  return table.render() + "\n-- CSV --\n" + table.render_csv() + "\n";
}

const Results& first_run(const Campaign& campaign, std::string_view id) {
  return campaign.records(id).front()->results;
}

// --- Columns ---------------------------------------------------------------

/// One cell of text.
template <typename F>
Column column(std::string header, F cell) {
  return {{std::move(header)},
          [cell](const RowData& row) { return Cells{cell(row)}; }};
}

/// One number with `precision` decimals.
template <typename F>
Column num(std::string header, int precision, F value) {
  return column(std::move(header), [value, precision](const RowData& row) {
    return fmt(value(row), precision);
  });
}

/// One integer count.
template <typename F>
Column count(std::string header, F value) {
  return column(std::move(header), [value](const RowData& row) {
    return std::to_string(value(row));
  });
}

/// RTT mean and standard deviation (Figs 3, 7 and 11).
Column rtt(int precision = 2) {
  return {{"RTT (ms)", "STDDEV (ms)"}, [precision](const RowData& row) {
            const auto values = rtt_row(row.pooled);
            return Cells{fmt(values[0], precision), fmt(values[1], precision)};
          }};
}

/// CPU idle and memory per server host (Figs 6 and 13).
Column resources() {
  return {{"CPU idle (%)", "memory (MB)"}, [](const RowData& row) {
            const auto values = resource_row(row.pooled);
            return Cells{fmt(values[0], 1), fmt(values[1], 0)};
          }};
}

/// The paper's 95-100 % percentile axis, in ms (seconds with `divisor`
/// 1000).
Column percentiles(int precision, double divisor = 1.0) {
  Cells headers;
  for (double pct : paper_percentiles()) headers.push_back(strf("%.0f%%", pct));
  return {std::move(headers), [precision, divisor](const RowData& row) {
            Cells cells;
            for (double value : percentile_row(row.pooled)) {
              cells.push_back(fmt(value / divisor, precision));
            }
            return cells;
          }};
}

/// Share of messages within `ms`, in percent.
Column within(std::string header, double ms, int precision) {
  return num(std::move(header), precision, [ms](auto& r) {
    return r.pooled.metrics.rtt_ms().fraction_below(ms) * 100.0;
  });
}

/// Explains a refused-connections row (the OOM walls of Figs 7 and 11).
Column oom_note(std::string clients, std::string paper) {
  return column("note", [clients, paper](const RowData& row) {
    if (row.pooled.refused == 0) return std::string();
    return "OOM: refused " + std::to_string(row.pooled.refused) + " " +
           clients + " (paper: " + paper + ")";
  });
}

// --- Rows ------------------------------------------------------------------

/// One row per scaling point `prefix + n`, labelled (deployment, n), or
/// just (n) when `deployment` is empty.
std::vector<Row> sweep(const std::string& prefix, std::vector<int> points,
                       const std::string& deployment = {}) {
  std::vector<Row> rows;
  for (int n : points) {
    Row row{{}, prefix + std::to_string(n)};
    if (!deployment.empty()) row.labels.push_back(deployment);
    row.labels.push_back(std::to_string(n));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Row> operator+(std::vector<Row> a, const std::vector<Row>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Rows labelled by their own scenario id.
std::vector<Row> by_id(const std::vector<std::string>& ids) {
  std::vector<Row> rows;
  for (const auto& id : ids) rows.push_back({{id}, id});
  return rows;
}

// --- Free-form text --------------------------------------------------------

std::string table1_text(const Figure&, const FigureContext& context) {
  namespace costs = cluster::costs;
  auto kib = [](std::int64_t bytes) {
    return std::to_string(bytes / units::KiB) + " KiB/conn";
  };
  util::TextTable table({"paper artifact", "model parameter", "value"});
  table.add_row({"PentiumIII 866MHz", "broker event service (base)",
                 fmt(units::to_micros(costs::kBrokerServiceBase)) + " us"});
  table.add_row({"2GB RAM / -Xmx1024m", "JVM process budget",
                 std::to_string(costs::kJvmHeapBudget / units::MiB) + " MiB"});
  table.add_row({"100Mbps switch LAN", "effective goodput",
                 "7.75 MB/s (efficiency 0.62)"});
  table.add_row({"Sun Hotspot 1.4.2", "GC minor pause at full heap",
                 fmt(units::to_millis(costs::kGcMinorPauseBase +
                                      costs::kGcMinorPausePerOccupancy)) +
                     " ms"});
  table.add_row(
      {"NaradaBrokering v1.1.3", "connection footprint",
       kib(costs::kThreadStackBytes + costs::kConnectionBufferBytes) +
           " (OOM near 4000)"});
  table.add_row({"R-GMA gLite 3.0 + Tomcat", "producer footprint",
                 kib(costs::kRgmaConnectionBytes) + " (OOM near 800)"});
  return header(context, "Table I",
                "hardware specifications and software versions (modelled)") +
         cluster::Hydra().describe() + "\n\n" + table_text(table);
}

/// Fig 7's chart; OOM meltdown points are off-model, so it clips to the
/// stable range like the paper's axis.
std::string fig7_chart(const Figure& figure, const FigureContext& context) {
  std::vector<std::pair<double, double>> single_series;
  std::vector<std::pair<double, double>> dbn_series;
  for (const Row& row : figure.panels.front().rows) {
    const Results pooled = context.campaign.pooled(row.id);
    const double rtt = pooled.metrics.rtt_mean_ms();
    if (pooled.refused > 0 || rtt > 100.0) continue;
    (row.labels[0] == "single" ? single_series : dbn_series)
        .emplace_back(std::stoi(row.labels[1]), rtt);
  }
  util::AsciiChart chart(56, 14);
  chart.add_series("RTT (single)", single_series);
  chart.add_series("RTT2 (DBN)", dbn_series);
  return "RTT (ms) vs concurrent connections:\n" + chart.render();
}

std::string fig15_phases(const Figure&, const FigureContext& context) {
  const Metrics& rgma = first_run(context.campaign, "rgma/single/400").metrics;
  const Metrics& narada =
      first_run(context.campaign, "narada/single/400").metrics;
  return strf("phase means (ms):\n"
              "  RGMA   PRT=%.1f  PT=%.1f  SRT=%.1f\n"
              "  Narada PRT=%.2f  PT=%.2f  SRT=%.2f\n",
              rgma.prt_ms().mean(), rgma.pt_ms().mean(),
              rgma.srt_ms().mean(), narada.prt_ms().mean(),
              narada.pt_ms().mean(), narada.srt_ms().mean());
}

/// Table III's grades, derived from the measured campaign: real-time
/// performance from the 99.8th-percentile RTT at 800 connections,
/// connections from the single-server OOM wall, scalability from whether
/// the distributed deployment improves latency and extends the wall.
std::string table3_text(const Figure&, const FigureContext& context) {
  const Campaign& campaign = context.campaign;
  const auto narada = campaign.pooled("narada/single/800");
  const auto rgma = campaign.pooled("rgma/single/400");
  const auto narada_4000 = campaign.pooled("narada/single/4000");
  const auto narada_dbn_4000 = campaign.pooled("narada/dbn/4000");
  const auto rgma_800 = campaign.pooled("rgma/single/800");
  const auto rgma_dist_1000 = campaign.pooled("rgma/distributed/1000");
  const bool narada_dbn_scales =
      narada_dbn_4000.refused == 0 &&
      narada_dbn_4000.metrics.rtt_mean_ms() > narada.metrics.rtt_mean_ms();
  const bool rgma_dist_scales = rgma_dist_1000.refused == 0 &&
                                rgma_dist_1000.metrics.rtt_mean_ms() <
                                    1.5 * rgma_800.metrics.rtt_mean_ms();
  auto connections = [](bool oom_at_probe, const char* wall) {
    return oom_at_probe ? std::string("Average (wall at ") + wall + ")"
                        : "Very good";
  };
  util::TextTable table({"", "Real-time performance",
                         "Concurrent Connections & Throughput",
                         "Scalability"});
  table.add_row({"R-GMA", grade_realtime(rgma),
                 connections(rgma_800.refused > 0, "~800 conns"),
                 rgma_dist_scales ? "Very good (distributed better + 1000+)"
                                  : "Average"});
  table.add_row({"Narada", grade_realtime(narada),
                 connections(narada_4000.refused > 0, "~4000 conns"),
                 narada_dbn_scales
                     ? "Average (DBN adds capacity but broadcasts)"
                     : "Very good"});
  auto refused = [](const Results& results) {
    return static_cast<unsigned long long>(results.refused);
  };
  return header(context, "Table III",
                "R-GMA and NaradaBrokering comparison (measured grades)") +
         table_text(table) +
         strf("evidence:\n"
              "  Narada 800 conns: RTT %.2f ms, 99.8th pct %.1f ms\n"
              "  R-GMA 400 conns: RTT %.0f ms, 99.8th pct %.0f ms\n"
              "  Narada single@4000: refused %llu | DBN@4000: refused %llu\n"
              "  R-GMA single@800: refused %llu | distributed@1000: refused "
              "%llu\n",
              narada.metrics.rtt_mean_ms(),
              narada.metrics.rtt_percentile_ms(99.8),
              rgma.metrics.rtt_mean_ms(), rgma.metrics.rtt_percentile_ms(99.8),
              refused(narada_4000), refused(narada_dbn_4000),
              refused(rgma_800), refused(rgma_dist_1000));
}

/// Loss over virtual time around the fault windows (first seed; the series
/// is deterministic per seed), then the per-window TTR.
std::string chaos_timelines(const Figure& figure,
                            const FigureContext& context) {
  const auto& rows = figure.panels.front().rows;
  std::string out = "\nloss% over time (peak per window; first seed):\n";
  for (const Row& row : rows) {
    const Results& results = first_run(context.campaign, row.id);
    if (!results.obs) continue;
    const auto loss = obs::loss_percent_series(*results.obs);
    if (loss.loss_pct.empty()) continue;
    double peak = 0;
    for (double v : loss.loss_pct) peak = std::max(peak, v);
    out += strf("  %-44s |%s| peak %.1f%%\n", row.id.c_str(),
                util::sparkline(loss.loss_pct).c_str(), peak);
  }
  out += "\nper-window TTR (ms, pooled worst case over seeds):\n";
  for (const Row& row : rows) {
    const auto ttr =
        context.campaign.pooled(row.id).availability.ttr_windows_ms;
    if (ttr.empty()) continue;
    std::string windows;
    for (std::size_t w = 0; w < ttr.size(); ++w) {
      windows += strf("%s%.1f", w > 0 ? ", " : "", ttr[w]);
    }
    out += strf("  %-44s [%s]\n", row.id.c_str(), windows.c_str());
  }
  return out;
}

// --- Catalogue -------------------------------------------------------------

const std::vector<std::string> kChaosIds = {
    "chaos/narada/broker_crash/800", "chaos/narada/broker_crash/800_norecovery",
    "chaos/narada/dbn_partition", "chaos/narada/nic_flap/400",
    "chaos/narada/udp_loss_burst/800", "chaos/rgma/registry_outage/400",
    "chaos/rgma/registry_outage/400_norecovery", "chaos/rgma/servlet_restart",
    "chaos/rgma/servlet_restart_norecovery", "chaos/mqtt/broker_crash/800",
    "chaos/mqtt/broker_crash/800_norecovery", "chaos/mqtt/flapping_link/800",
    "chaos/mqtt/flapping_link/800_qos0"};

/// Each replay twin first, then its recovery-only sibling when one exists.
const std::vector<std::string> kReplicationIds = {
    "chaos/narada/broker_crash_replay/800", "chaos/narada/broker_crash/800",
    "chaos/narada/dbn_broker_crash_replay",
    "chaos/narada/dbn_partition_replay", "chaos/narada/dbn_partition",
    "chaos/narada/nic_flap_replay/400", "chaos/narada/nic_flap/400",
    "chaos/mqtt/flapping_link_replay/800", "chaos/mqtt/flapping_link/800",
    "chaos/rgma/servlet_restart_replay", "chaos/rgma/servlet_restart",
    "chaos/rgma/registry_halfopen/400"};

std::vector<Figure> build_catalogue() {
  auto loss = [](int precision) {
    return num("loss (%)", precision,
               [](auto& r) { return r.pooled.metrics.loss_rate() * 100.0; });
  };
  auto rtt_mean = [](int precision) {
    return num("RTT (ms)", precision,
               [](auto& r) { return r.pooled.metrics.rtt_mean_ms(); });
  };
  const Column p99 = num("p99 (ms)", 2, [](auto& r) {
    return r.pooled.metrics.rtt_percentile_ms(99);
  });
  const Column cpu_idle = num(
      "CPU idle (%)", 1, [](auto& r) { return r.pooled.servers.cpu_idle_pct; });
  const Column sent =
      count("sent", [](auto& r) { return r.pooled.metrics.sent(); });
  const Column received =
      count("received", [](auto& r) { return r.pooled.metrics.received(); });
  const Column forwarded = count(
      "events forwarded", [](auto& r) { return r.pooled.events_forwarded; });
  const Column refused =
      count("refused", [](auto& r) { return r.pooled.refused; });
  const Column ttr = num("TTR (ms)", 1, [](auto& r) {
    return r.pooled.availability.time_to_recover_ms;
  });
  const Column late = count(
      "late", [](auto& r) { return r.pooled.availability.delivered_late; });
  const std::vector<Row> comparison = {
      {{"UDP"}, "narada/comparison/udp"},
      {{"UDP CLI"}, "narada/comparison/udp_cli"},
      {{"NIO"}, "narada/comparison/nio"},
      {{"TCP"}, "narada/comparison/tcp"},
      {{"Triple"}, "narada/comparison/triple"},
      {{"80"}, "narada/comparison/80"}};
  const std::vector<Row> narada_single =
      sweep("narada/single/", {500, 1000, 2000, 3000, 4000}, "single");
  const std::string dbn = "DBN (4 brokers)";
  const std::string distributed = "distributed (2P+2C)";

  std::vector<Figure> figures;
  // Most figures are one panel and a footer.
  auto add = [&figures](std::string name, std::vector<Panel> panels,
                        std::string footer = {}) -> Figure& {
    return figures.emplace_back(Figure{.name = std::move(name),
                                       .panels = std::move(panels),
                                       .footer = std::move(footer)});
  };
  add("table1", {}).text = table1_text;
  add("fig3",
      {{"Table II + Fig 3",
        "Narada comparison tests: round-trip time and standard deviation",
        {"test"}, comparison, {rtt(), loss(3), sent, received}}},
      "Paper shape check: TCP fast & stable, UDP ≈ 4x TCP (per-packet ack "
      "cycle),\nTriple > TCP (payload cost), '80' lowest, UDP loss ≈ 0.06%, "
      "TCP loss = 0.\n");
  add("fig4", {{"Fig 4", "Narada comparison tests, percentile of RTT (ms)",
                {"test"}, comparison, {percentiles(1)}}});
  add("fig6",
      {{"Fig 6", "Narada CPU idle and memory consumption (per broker host)",
        {"deployment", "connections"},
        narada_single + sweep("narada/dbn/", {2000, 3000, 4000}, dbn),
        {resources(), forwarded}}},
      "Shape check: single-broker memory grows ~linearly with connections "
      "(thread\nstacks); DBN forwards every event to every broker "
      "(broadcast), so forwarded\nevents = 3x published events.\n");
  add("fig7",
      {{"Fig 7", "Narada RTT and standard deviation vs concurrent connections",
        {"deployment", "connections"},
        narada_single + sweep("narada/dbn/", {2000, 3000, 4000, 5000}, dbn),
        {rtt(), oom_note("connections", "single broker cannot accept 4000")}}})
      .text = fig7_chart;
  add("fig8",
      {{"Fig 8", "Narada single-broker tests, percentile of RTT (ms)",
        {"connections"}, sweep("narada/single/", {500, 1000, 2000, 3000}),
        {percentiles(1), within("<=100ms (%)", 100.0, 1)}}},
      "Paper check: 99.8% of messages within 100 ms.\n");
  add("fig9",
      {{"Fig 9", "Narada DBN tests, percentile of RTT (ms)", {"connections"},
        sweep("narada/dbn/", {2000, 3000, 4000}), {percentiles(1)}}},
      "Paper check: DBN accepts 4000+ connections (no OOM) but percentiles "
      "sit above\nthe single broker's at the same load.\n");
  // Seconds, not ms: the Secondary Producer holds data for a deliberate
  // 30 s, and the paper measured delays up to ~35 s.
  add("fig10",
      {{"Fig 10",
        "R-GMA Primary + Secondary Producer tests, percentile of RTT (s)",
        {"connections"}, sweep("rgma/secondary/", {50, 100, 200}),
        {percentiles(1, 1000.0)}}},
      "Paper check: delays up to ~35 s; dominated by the Secondary "
      "Producer's\ndeliberate 30 s buffering delay.\n");
  add("fig11",
      {{"Fig 11",
        "R-GMA Primary Producer and Consumer: RTT and STDDEV vs connections",
        {"deployment", "connections"},
        sweep("rgma/single/", {100, 200, 400, 600, 800}, "single") +
            sweep("rgma/distributed/", {400, 600, 800, 1000}, distributed),
        {rtt(0), oom_note("producers", "one server cannot accept 800")}}});
  add("fig12",
      {{"Fig 12",
        "R-GMA Primary Producer and Consumer single-server tests, percentile "
        "of RTT (ms)",
        {"connections"}, sweep("rgma/single/", {100, 200, 400, 600}),
        {percentiles(0), within("<=4000ms (%)", 4000.0, 0)}}},
      "Paper check: 99% of messages arrived within 4000 ms.\n");
  add("fig13",
      {{"Fig 13", "R-GMA CPU idle and memory consumption (per server host)",
        {"deployment", "connections"},
        sweep("rgma/single/", {100, 200, 400, 600}, "single") +
            sweep("rgma/distributed/", {200, 400, 600, 800, 1000},
                  distributed),
        {resources()}}},
      "Paper check: distributed CPU load lower than single server at the "
      "same\nconnection count; memory per host lower too — R-GMA scales "
      "very well.\n");
  add("fig14",
      {{"Fig 14", "R-GMA distributed network tests, percentile of RTT (ms)",
        {"connections"}, sweep("rgma/distributed/", {400, 600, 800, 1000}),
        {percentiles(0)}}});
  const Column decomposition = {
      {"before_sending", "after_sending", "before_receiving",
       "after_receiving"},
      [](const RowData& row) {
        Cells cells;
        for (double v : decomposition_row(row.first)) {
          cells.push_back(fmt(v, 1));
        }
        return cells;
      }};
  add("fig15",
      {{"Fig 15", "RTT decomposition: RTT = PRT + PT + SRT (cumulative ms)",
        {"system"},
        {{{"RGMA"}, "rgma/single/400"}, {{"Narada"}, "narada/single/400"}},
        {decomposition}}},
      "Paper check: R-GMA's PRT and SRT are short but PT is very long; all "
      "three\nNarada phases are very short.\n")
      .text = fig15_phases;
  Figure& table3 = add("table3", {},
                       "Paper: R-GMA = Average / Average / Very good; Narada "
                       "= Very good / Very good / Average.\n");
  table3.text = table3_text;
  table3.ids = {"narada/single/800", "narada/single/4000", "narada/dbn/4000",
                "rgma/single/400", "rgma/single/800", "rgma/distributed/1000"};
  // §III.F: a producer's first tuples race the mediator attaching its
  // stream, and continuous queries do not replay the past.
  add("rgma_warmup_loss",
      {{"§III.F loss experiment",
        "R-GMA data loss with and without the 10–20 s warm-up wait",
        {"variant"},
        {{{"no warm-up"}, "rgma/no_warmup"},
         {{"10-20 s warm-up"}, "rgma/single/400"}},
        {sent, received, loss(3)}}},
      "Paper check: 0.17% loss without warm-up (72,000 sent / 71,876 "
      "received),\nzero loss with the warm-up wait.\n");

  std::vector<Row> routing;
  for (const std::string n : {"2000", "3000", "4000"}) {
    routing.push_back({{"broadcast", n}, "narada/dbn/" + n});
    routing.push_back({{"subscription-aware", n}, "narada/dbn_routed/" + n});
  }
  add("ablation_dbn_routing",
      {{"Ablation", "DBN broadcast deficiency vs subscription-aware routing",
        {"routing", "connections"}, routing, {rtt(), forwarded, cpu_idle}}},
      "Expectation: routed mode forwards fewer events, spends less broker "
      "CPU and\nshaves RTT — confirming the paper's diagnosis of the "
      "deficiency.\n");
  const std::vector<Row> matrix = {
      {{"TCP", "AUTO"}, "narada/matrix/tcp/auto"},
      {{"TCP", "CLIENT"}, "narada/matrix/tcp/client"},
      {{"NIO", "AUTO"}, "narada/matrix/nio/auto"},
      {{"NIO", "CLIENT"}, "narada/matrix/nio/client"},
      {{"UDP", "AUTO"}, "narada/matrix/udp/auto"},
      {{"UDP", "CLIENT"}, "narada/matrix/udp/client"}};
  add("ablation_ack_transport",
      {{"Ablation", "transport x acknowledgement mode at 800 connections",
        {"transport", "ack mode"}, matrix, {rtt(), loss(3)}}},
      "Expectation: the CLIENT-ack penalty is a constant ~2 ms on every "
      "transport;\nUDP's penalty comes from the server-side ack cycle, not "
      "the mode.\n");
  auto seconds = [](std::string header, auto ms) {
    return num(std::move(header), 1,
               [ms](auto& r) { return ms(r.pooled.metrics) / 1000.0; });
  };
  add("ablation_sp_delay",
      {{"Ablation",
        "Secondary Producer deliberate delay swept 0-30 s (100 connections)",
        {"deliberate delay (s)"},
        sweep("rgma/secondary_delay/", {0, 5, 15, 30}),
        {seconds("RTT (s)", [](auto& m) { return m.rtt_mean_ms(); }),
         seconds("95% (s)", [](auto& m) { return m.rtt_percentile_ms(95); }),
         seconds("100% (s)",
                 [](auto& m) { return m.rtt_percentile_ms(100); })}}},
      "Expectation: RTT ≈ deliberate delay + ~2x the PP→Consumer pipeline "
      "(a second\nor two) — the 30 s constant explains nearly all of Fig "
      "10.\n");
  // One 1,000 msg/s publisher (a gateway concentrating many generators):
  // aggregation amortises per-message broker overhead (IBM RMM, §IV). The
  // two gateway ablations publish for a fixed 120 s at any duration.
  add("ablation_aggregation",
      {{"Ablation",
        "sender-side message aggregation at 1,000 msg/s through one broker, "
        "fixed 120 s window",
        {"aggregation"}, sweep("ablation/aggregation/", {1, 2, 4, 8, 16, 32}),
        {rtt_mean(2), p99,
         num("broker CPU busy (%)", 1,
             [](auto& r) { return 100.0 - r.pooled.servers.cpu_idle_pct; }),
         received}}},
      "Expectation (RMM): broker CPU falls sharply with aggregation (the "
      "per-message\noverhead dominates), while RTT first falls (queueing "
      "relief), then rises\n(batching delay) — the classic "
      "throughput/latency trade.\n");
  // §III.D rejected Web Services as too slow; the check quantifies it.
  Figure& webservices = add(
      "ablation_webservices",
      {{"Ablation (§III.D)",
        "binary JMS vs SOAP-proxied Web Services data path, 150 msg/s, "
        "fixed 120 s window",
        {"encoding"},
        {{{"binary JMS"}, "ablation/webservices/binary"},
         {{"SOAP (WS proxy)"}, "ablation/webservices/soap"}},
        {rtt_mean(2), p99,
         count("bytes into broker",
               [](auto& r) { return r.pooled.wire_bytes; })}}},
      "Expectation: SOAP multiplies both wire bytes (XML inflation) and RTT "
      "(codec\nCPU) — the quantified version of the paper's \"Why not Web "
      "Services\".\n");
  webservices.check = [](const Campaign& campaign) {
    auto rtt = [&](const char* id) {
      return campaign.pooled(id).metrics.rtt_mean_ms();
    };
    return rtt("ablation/webservices/soap") >
           2.0 * rtt("ablation/webservices/binary");
  };
  // §III.E held these fixed: non-persistent delivery and plain HTTP.
  add("ablation_delivery_modes",
      {{"Ablation", "delivery-quality knobs the paper held fixed",
        {"variant"},
        {{{"Narada 800, non-persistent (paper)"}, "narada/single/800"},
         {{"Narada 800, persistent delivery"}, "narada/persistent/800"},
         {{"R-GMA 200, HTTP (paper)"}, "rgma/single/200"},
         {{"R-GMA 200, HTTPS (\"encryption overhead\")"}, "rgma/https/200"},
         {{"R-GMA 200, legacy StreamProducer path ([11])"},
          "rgma/legacy/200"}},
        {rtt(), cpu_idle}}},
      "Expectations: persistence adds a per-event stable-storage write "
      "(~6 ms+);\nHTTPS costs CPU on every servlet hop; the legacy "
      "streaming path skips the\nconsumer evaluation cycle — which is why "
      "related work [11] measured the old\nR-GMA API far faster than the "
      "paper measured the new one (§III.F.3).\n");
  add("chaos_recovery",
      {{"Chaos", "fault injection: availability with and without recovery",
        {"scenario"}, by_id(kChaosIds),
        {loss(4), ttr,
         num("downtime (ms)", 1,
             [](auto& r) { return r.pooled.availability.downtime_ms; }),
         count("lost in",
               [](auto& r) { return r.pooled.availability.lost_in_window; }),
         count("lost post",
               [](auto& r) { return r.pooled.availability.lost_post_window; }),
         late, count("recovery actions", [](auto& r) {
           const auto& a = r.pooled.availability;
           return a.reconnects + a.resubscribes + a.reregistrations;
         })}}},
      "Expectation: every *_norecovery twin loses strictly more and pins TTR "
      "at the\nrun horizon; with recovery the loss concentrates in-window "
      "and TTR stays\nbounded by the backoff schedule. The R-GMA registry "
      "outage is the exception\nthat proves GMA's design: the data path "
      "never stops (TTR ~0), the damage is\nconfined to producers that "
      "could not mediate during the outage.\n")
      .text = chaos_timelines;

  const std::vector<Column> mqtt_columns = {
      loss(4), rtt_mean(3),
      num("PT (ms)", 3, [](auto& r) { return r.first.metrics.pt_ms().mean(); }),
      num("wire (MB)", 1,
          [](auto& r) {
            return static_cast<double>(r.pooled.wire_bytes) / units::MiB /
                   r.seeds;
          }),
      cpu_idle,
      count("mem (MB)",
            [](auto& r) { return r.pooled.servers.memory_bytes / units::MiB; }),
      refused};
  add("mqtt_qos",
      {{"MQTT QoS tiers",
        "delivery-guarantee cost at the paper's 800-connection point",
        {"scenario"},
        by_id({"mqtt/qos0/800", "mqtt/qos1/800", "mqtt/qos2/800",
               "narada/single/800", "rgma/single/800"}),
        mqtt_columns},
       {"MQTT scaling", "event-loop broker vs thread-per-connection wall",
        {"scenario"},
        by_id({"mqtt/single/800", "mqtt/single/2000", "mqtt/single/4000",
               "narada/single/800", "narada/single/2000",
               "narada/single/4000"}),
        mqtt_columns}},
      "Expectation: QoS 1 adds the PUBACK round and QoS 2 doubles it "
      "(PUBREC/\nPUBREL/PUBCOMP), visible in wire bytes at near-identical "
      "RTT on an idle\nLAN; the event-loop broker admits 4000 sessions on "
      "heap alone while the\nthreaded Narada broker hits its OOM wall "
      "(refused > 0) at the same point.\n");
  add("replication",
      {{"Replication",
        "reconnect backfill: loss after recovery and the retention price",
        {"scenario"}, by_id(kReplicationIds),
        {loss(4),
         num("after recovery (%)", 4,
             [](auto& r) {
               const auto& a = r.pooled.availability;
               const double sent = static_cast<double>(r.pooled.metrics.sent());
               const auto lost = a.lost_in_window + a.lost_post_window;
               return sent > 0 ? 100.0 * static_cast<double>(lost) / sent
                               : 0.0;
             }),
         ttr,
         count("backfill msgs",
               [](auto& r) { return r.pooled.availability.backfill_msgs; }),
         count("backfill (B)",
               [](auto& r) { return r.pooled.availability.backfill_bytes; }),
         count("peak history (B)",
               [](auto& r) {
                 const auto& mem = r.pooled.mem;
                 return mem.enabled ? mem.peak_at(obs::MemCategory::kHistory)
                                    : 0;
               }),
         late}}},
      "Expectation: every _replay twin reports ~0% loss after recovery "
      "(SLO-gated at\n0.5%) where its recovery-only sibling pays the whole "
      "disconnection gap; the\nprice is backfill wire bytes, retained "
      "history bytes, and late deliveries as\nthe gap drains. R-GMA's "
      "history column is 0 by design — it replays from the\nTupleStore "
      "windows it already pays for. The half-open registry row "
      "recovers\nonly because client requests time out instead of "
      "wedging.\n");

  // Host wall time and events/s are gridbench's job (its hier_1m
  // workload), so these columns are a pure function of the campaign.
  const std::vector<Column> hier_columns = {
      count("generators", [](auto& r) { return r.pooled.generators; }),
      rtt_mean(2), loss(4), refused,
      column("completed",
             [](auto& r) { return r.pooled.completed ? "yes" : "NO"; }),
      count("peak model (B)", [](auto& r) { return r.pooled.mem.peak_total; }),
      num("B/gen", 1,
          [](auto& r) {
            const auto& pooled = r.pooled;
            return pooled.generators > 0
                       ? static_cast<double>(pooled.mem.peak_total) /
                             static_cast<double>(pooled.generators)
                       : 0.0;
          }),
      count("wire (B)", [](auto& r) { return r.pooled.wire_bytes; })};
  std::vector<std::string> scales;
  for (const std::string backend : {"narada", "rgma", "mqtt"}) {
    for (const char* scale : {"10k", "50k", "200k", "1m"}) {
      scales.push_back("hier/" + backend + "/" + scale);
    }
  }
  add("hier_scale",
      {{"Hier scale sweep",
        "10k -> 1M generators through edge aggregation, per backend",
        {"scenario"}, by_id(scales), hier_columns},
       {"Architecture ablation",
        "flat connection-per-generator vs broker tree vs edge aggregation, "
        "10k generators",
        {"scenario"},
        by_id({"hier/ablation/flat_10k", "hier/ablation/tree_10k",
               "hier/ablation/edge_10k"}),
        hier_columns}},
      "Expectation: every hier scale completes — 1M generators fit in under "
      "1 MB of\nmodel state (the fleet is hashed from the seed and holds "
      "no per-generator\nbytes; pending frames and the broker footprint "
      "remain), where the flat ablation\nhits the 1 GiB heap wall near 3800 "
      "connections and refuses the rest of its 10k\nfleet. Bytes/generator "
      "*falls* with scale as the fixed broker footprint\namortises; the "
      "tree arm (raw pass-through) pays an order of magnitude more\nwire "
      "bytes than the reducing edge arm at identical fleet sizes.\n");
  return figures;
}

}  // namespace

std::vector<std::string> Figure::scenario_ids() const {
  std::vector<std::string> out;
  for (const Panel& panel : panels) {
    for (const Row& row : panel.rows) out.push_back(row.id);
  }
  out.insert(out.end(), ids.begin(), ids.end());
  return out;
}

const std::vector<Figure>& figure_catalogue() {
  static const std::vector<Figure> kFigures = build_catalogue();
  return kFigures;
}

const Figure* find_figure(std::string_view name) {
  for (const Figure& figure : figure_catalogue()) {
    if (figure.name == name) return &figure;
  }
  return nullptr;
}

std::string render_figure(const Figure& figure, const FigureContext& context) {
  std::string out;
  for (const Panel& panel : figure.panels) {
    std::vector<std::string> headers = panel.labels;
    for (const Column& column : panel.columns) {
      headers.insert(headers.end(), column.headers.begin(),
                     column.headers.end());
    }
    util::TextTable table(std::move(headers));
    for (const Row& row : panel.rows) {
      const Results pooled = context.campaign.pooled(row.id);
      const RowData data{pooled, first_run(context.campaign, row.id),
                         context.seeds};
      std::vector<std::string> cells = row.labels;
      for (const Column& column : panel.columns) {
        for (auto& cell : column.cells(data)) cells.push_back(std::move(cell));
      }
      table.add_row(std::move(cells));
    }
    out += header(context, panel.title, panel.caption) + table_text(table);
  }
  if (figure.text) out += figure.text(figure, context);
  return out + figure.footer;
}

}  // namespace gridmon::core
