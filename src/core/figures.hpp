// The paper's figure catalogue: every table and figure gridmon regenerates,
// as data.
//
// Tables I-III, Figs 3-15, the ablations and the chaos, MQTT, replication
// and hier extensions all come from one measurement campaign (§III), so a
// figure is a view over it: the scenario ids it reads and how it lays them
// out. Most figures are panels, one row per scenario with columns computed
// from its pooled seeds; the rest render free-form text.
// `gridmon_cli report <name...|all>` queues the selected figures' ids as
// one campaign (each id once) and prints the figures in order.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.hpp"

namespace gridmon::core {

/// The finished campaign, plus the settings a figure header prints.
struct FigureContext {
  const Campaign& campaign;
  int minutes = 0;
  int seeds = 0;
};

/// What a column reads for one row's scenario.
struct RowData {
  const Results& pooled;  ///< every seed pooled (the paper's merge)
  const Results& first;   ///< the first seed (phase means are means already)
  int seeds = 0;
};

/// One or more adjacent table columns filled from a row's scenario.
struct Column {
  std::vector<std::string> headers;
  std::function<std::vector<std::string>(const RowData&)> cells;
};

/// A table row: its leading label cells and the scenario behind the rest.
struct Row {
  std::vector<std::string> labels;
  std::string id;
};

/// One "title — caption" banner and its table, then the table as CSV.
struct Panel {
  std::string title;
  std::string caption;
  std::vector<std::string> labels;  ///< headers of the label cells
  std::vector<Row> rows;
  std::vector<Column> columns;
};

/// A catalogue entry, printed as its panels, then `text`, then `footer`.
struct Figure {
  std::string name;  ///< `report` name: "table1", "fig3", "hier_scale", ...
  std::vector<Panel> panels = {};
  /// Charts and evidence lines; figures without panels are all text.
  std::function<std::string(const Figure&, const FigureContext&)> text = {};
  std::vector<std::string> ids = {};  ///< scenarios only `text` reads
  std::string footer = {};            ///< the paper's shape-check lines
  /// Pass/fail check over the campaign; unset means always pass.
  std::function<bool(const Campaign&)> check = {};

  /// Every scenario id the figure reads, panel rows first (may repeat).
  [[nodiscard]] std::vector<std::string> scenario_ids() const;
};

/// Every figure: the paper's order, then the ablations and extensions.
[[nodiscard]] const std::vector<Figure>& figure_catalogue();

/// The catalogue entry named `name`, or nullptr.
[[nodiscard]] const Figure* find_figure(std::string_view name);

/// The figure exactly as `gridmon_cli report` prints it. The campaign must
/// hold every id in `figure.scenario_ids()`.
[[nodiscard]] std::string render_figure(const Figure& figure,
                                        const FigureContext& context);

}  // namespace gridmon::core
