// Exporters and loss analytics for obs::Report.
//
// Three output shapes:
//
//   * chrome_trace_json — Chrome trace-event JSON, loadable in Perfetto or
//     chrome://tracing. Each sampled message renders as its own row of
//     named stage spans ("complete" events whose ts/dur are virtual-time
//     microseconds); fault windows from core/faults render on a dedicated
//     "chaos" track (tid 0) as duration or instant events.
//   * series_csv / series_json — the sampled Timeline as a flat table,
//     one row per sampling window. Formatting is locale-free and
//     deterministic, so the CSV is byte-identical across campaign worker
//     counts (pinned by obs_determinism_test).
//   * loss_percent_series — the windowed loss-over-time series the CLI
//     and report sparklines draw.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/recorder.hpp"

namespace gridmon::obs {

/// Version stamped into the JSON exports (`"schema_version"` key) so
/// downstream tooling can refuse incompatible documents. Perfetto ignores
/// the extra key in the trace wrapper.
inline constexpr int kExportSchemaVersion = 1;

/// Append `text` to `out` as the inside of a JSON string: `"` and `\`
/// escaped, control characters as `\u00XX`.
void append_escaped(std::string& out, std::string_view text);

/// Chrome trace-event JSON for Perfetto / chrome://tracing.
[[nodiscard]] std::string chrome_trace_json(const Report& report);

/// Timeline as CSV: header "t_ms,<columns...>" + one row per sample.
[[nodiscard]] std::string series_csv(const Report& report);

/// Timeline as JSON: {"schema_version": N, "kind": "gridmon_series",
/// "columns": [...], "samples": [[t_ms, ...], ...], "chaos": [...]}.
[[nodiscard]] std::string series_json(const Report& report);

struct LossSeries {
  std::vector<SimTime> at;        // window end timestamps
  std::vector<double> loss_pct;   // per-window loss, clamped to >= 0
};

/// Windowed loss from two cumulative counters: for each pair of adjacent
/// samples, 100 * (1 - delta(received)/delta(sent)). Windows with no
/// sends report 0. Negative values (deliveries catching up after a fault)
/// clamp to 0 — the sparkline reads as "loss", not flow balance.
[[nodiscard]] LossSeries loss_percent_series(
    const Report& report, std::string_view sent_column = "sent",
    std::string_view received_column = "received");

}  // namespace gridmon::obs
