#include "core/report.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <utility>

#include "core/campaign.hpp"
#include "obs/export.hpp"

namespace gridmon::core {

std::vector<double> rtt_row(const Results& results) {
  return {results.metrics.rtt_mean_ms(), results.metrics.rtt_stddev_ms()};
}

std::vector<double> percentile_row(const Results& results) {
  std::vector<double> out;
  out.reserve(paper_percentiles().size());
  for (double pct : paper_percentiles()) {
    out.push_back(results.metrics.rtt_percentile_ms(pct));
  }
  return out;
}

std::vector<double> resource_row(const Results& results) {
  return {results.servers.cpu_idle_pct,
          static_cast<double>(results.servers.memory_bytes) /
              static_cast<double>(units::MiB)};
}

std::vector<double> decomposition_row(const Results& results) {
  const double prt = results.metrics.prt_ms().mean();
  const double pt = results.metrics.pt_ms().mean();
  const double srt = results.metrics.srt_ms().mean();
  return {0.0, prt, prt + pt, prt + pt + srt};
}

std::string grade_realtime(const Results& results) {
  const double p998 = results.metrics.rtt_percentile_ms(99.8);
  if (p998 <= 100.0) return "Very good";
  if (p998 <= 1000.0) return "Good";
  if (p998 <= 5000.0) return "Average";
  return "Poor";
}

obs::SloInput slo_input(const Results& results, SimTime duration) {
  obs::SloInput input;
  input.sent = results.metrics.sent();
  input.received = results.metrics.received();
  input.delivered_late = results.metrics.delivered_late();
  input.lost_in_window = results.availability.lost_in_window;
  input.lost_post_window = results.availability.lost_post_window;
  input.downtime_ms = results.availability.downtime_ms;
  input.ttr_ms = results.availability.time_to_recover_ms;
  input.ttr_windows_ms = results.availability.ttr_windows_ms;
  input.duration_ms = units::to_millis(duration);
  return input;
}

obs::SloReport evaluate_slo(const obs::SloSpec& spec, const Results& results,
                            SimTime duration) {
  return obs::evaluate_slo(spec, slo_input(results, duration));
}

// --- Cross-run regression diffing --------------------------------------------

namespace {

// Minimal recursive-descent JSON reader, sized for the documents
// Campaign::json() writes (flat run objects, one nesting level of arrays/
// objects for ttr_windows_ms / mem_peak_bytes). Parse failures surface as
// CampaignDiff.error, never exceptions.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out) {
    const bool ok = value(out);
    skip_ws();
    return ok && pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object(out);
      case '[':
        return array(out);
      case '"':
        out.type = JsonValue::Type::kString;
        return string(out.string);
      case 't':
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.type = JsonValue::Type::kNull;
        return literal("null");
      default:
        return number(out);
    }
  }

  bool string(std::string& out) {
    if (text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            // Our own writer only emits \u00xx controls; decode as a byte.
            if (pos_ + 4 > text_.size()) return false;
            c = static_cast<char>(
                std::strtol(std::string(text_.substr(pos_, 4)).c_str(),
                            nullptr, 16));
            pos_ += 4;
            break;
          default:
            return false;
        }
      }
      out += c;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number(JsonValue& out) {
    const std::size_t begin = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == begin) return false;
    out.type = JsonValue::Type::kNumber;
    char* end = nullptr;
    const std::string token(text_.substr(begin, pos_ - begin));
    out.number = std::strtod(token.c_str(), &end);
    return end == token.c_str() + token.size();
  }

  bool array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue element;
      if (!value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || !string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      JsonValue element;
      if (!value(element)) return false;
      out.object.emplace_back(std::move(key), std::move(element));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// The metric table the diff walks. Direction encodes which way "worse"
// points; advisory metrics never flip the verdict.
struct DiffMetric {
  const char* key;
  enum class Direction { kLowerBetter, kHigherBetter, kNeutral } direction;
  bool advisory;
};

constexpr DiffMetric kDiffMetrics[] = {
    {"loss_pct", DiffMetric::Direction::kLowerBetter, false},
    {"rtt_mean_ms", DiffMetric::Direction::kLowerBetter, false},
    {"rtt_p99_ms", DiffMetric::Direction::kLowerBetter, false},
    {"pt_mean_ms", DiffMetric::Direction::kLowerBetter, false},
    {"slo_worst_burn", DiffMetric::Direction::kLowerBetter, false},
    {"peak_model_bytes", DiffMetric::Direction::kLowerBetter, false},
    {"loss_after_recovery_pct", DiffMetric::Direction::kLowerBetter, false},
    {"backfill_bytes", DiffMetric::Direction::kNeutral, false},
    {"bytes_per_generator", DiffMetric::Direction::kLowerBetter, false},
    {"sim_events", DiffMetric::Direction::kNeutral, false},
    {"wall_seconds", DiffMetric::Direction::kLowerBetter, true},
    {"events_per_sec", DiffMetric::Direction::kHigherBetter, true},
};

double number_or(const JsonValue& run, std::string_view key, double fallback,
                 bool* present = nullptr) {
  const JsonValue* v = run.find(key);
  if (present != nullptr) {
    *present = v != nullptr && v->type == JsonValue::Type::kNumber;
  }
  if (v == nullptr || v->type != JsonValue::Type::kNumber) return fallback;
  return v->number;
}

/// -1 unknown/no spec, 0 fail, 1 pass (handles both the JSON null/bool
/// form and a plain numeric column).
int slo_verdict(const JsonValue& run) {
  const JsonValue* v = run.find("slo_pass");
  if (v == nullptr || v->type == JsonValue::Type::kNull) return -1;
  if (v->type == JsonValue::Type::kBool) return v->boolean ? 1 : 0;
  if (v->type == JsonValue::Type::kNumber) {
    return v->number < 0 ? -1 : (v->number > 0 ? 1 : 0);
  }
  return -1;
}

bool parse_campaign_doc(std::string_view text, JsonValue& doc, int& schema,
                        const JsonValue*& runs, std::string& error,
                        const char* label) {
  JsonParser parser(text);
  if (!parser.parse(doc)) {
    error = std::string(label) + ": not valid JSON";
    return false;
  }
  if (doc.type != JsonValue::Type::kObject) {
    error = std::string(label) +
            ": not a campaign document (expected a JSON object with "
            "\"schema_version\" — legacy bare-array exports predate the "
            "schema and cannot be diffed)";
    return false;
  }
  const JsonValue* version = doc.find("schema_version");
  if (version == nullptr || version->type != JsonValue::Type::kNumber) {
    error = std::string(label) + ": missing \"schema_version\"";
    return false;
  }
  schema = static_cast<int>(version->number);
  const JsonValue* kind = doc.find("kind");
  if (kind == nullptr || kind->string != "gridmon_campaign") {
    error = std::string(label) + ": \"kind\" is not \"gridmon_campaign\"";
    return false;
  }
  runs = doc.find("runs");
  if (runs == nullptr || runs->type != JsonValue::Type::kArray) {
    error = std::string(label) + ": missing \"runs\" array";
    return false;
  }
  return true;
}

std::string run_key(const JsonValue& run) {
  const JsonValue* scenario = run.find("scenario");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "#%llu",
                static_cast<unsigned long long>(
                    number_or(run, "seed", 0)));
  return (scenario != nullptr ? scenario->string : "?") + std::string(buf);
}

}  // namespace

CampaignDiff diff_campaigns(std::string_view baseline_json,
                            std::string_view candidate_json,
                            const DiffOptions& options) {
  CampaignDiff out;
  // Parsed documents are sizeable; keep them off the stack.
  auto base_doc = std::make_unique<JsonValue>();
  auto cand_doc = std::make_unique<JsonValue>();
  const JsonValue* base_runs = nullptr;
  const JsonValue* cand_runs = nullptr;
  if (!parse_campaign_doc(baseline_json, *base_doc, out.baseline_schema,
                          base_runs, out.error, "baseline") ||
      !parse_campaign_doc(candidate_json, *cand_doc, out.candidate_schema,
                          cand_runs, out.error, "candidate")) {
    return out;
  }
  if (out.baseline_schema != out.candidate_schema) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "schema_version mismatch: baseline is v%d, candidate is "
                  "v%d — re-export the baseline with this build before "
                  "diffing",
                  out.baseline_schema, out.candidate_schema);
    out.error = buf;
    return out;
  }
  out.comparable = true;

  // Align by (scenario, seed); insertion order of the baseline drives the
  // report order.
  std::map<std::string, const JsonValue*> candidates;
  for (const JsonValue& run : cand_runs->array) {
    candidates.emplace(run_key(run), &run);
  }

  for (const JsonValue& base : base_runs->array) {
    const std::string key = run_key(base);
    auto it = candidates.find(key);
    if (it == candidates.end()) {
      out.only_baseline.push_back(key);
      continue;
    }
    const JsonValue& cand = *it->second;
    candidates.erase(it);

    RunDiff diff;
    diff.scenario_id = base.find("scenario") != nullptr
                           ? base.find("scenario")->string
                           : "?";
    diff.seed = static_cast<std::uint64_t>(number_or(base, "seed", 0));
    // Backend name (schema v2 `system` key). A flip between documents is
    // a configuration error worth surfacing, not a metric regression.
    const JsonValue* base_system = base.find("system");
    const JsonValue* cand_system = cand.find("system");
    const std::string base_sys =
        base_system != nullptr ? base_system->string : "";
    const std::string cand_sys =
        cand_system != nullptr ? cand_system->string : "";
    if (!base_sys.empty() && !cand_sys.empty() && base_sys != cand_sys) {
      diff.system = base_sys + " -> " + cand_sys;
    } else {
      diff.system = cand_sys.empty() ? base_sys : cand_sys;
    }
    for (const DiffMetric& metric : kDiffMetrics) {
      MetricDelta delta;
      delta.name = metric.key;
      delta.advisory = metric.advisory;
      bool base_present = false;
      bool cand_present = false;
      delta.baseline = number_or(base, metric.key, 0.0, &base_present);
      delta.candidate = number_or(cand, metric.key, 0.0, &cand_present);
      delta.present = base_present && cand_present;
      if (!delta.present) continue;  // e.g. timing-free exports
      if (delta.baseline != 0.0) {
        delta.delta_pct =
            100.0 * (delta.candidate - delta.baseline) / delta.baseline;
      } else {
        delta.delta_pct = delta.candidate == 0.0 ? 0.0 : 100.0;
      }
      const double tolerance = metric.advisory ? options.timing_tolerance_pct
                                               : options.rel_tolerance_pct;
      if (std::fabs(delta.delta_pct) > tolerance) {
        const bool worsened =
            metric.direction == DiffMetric::Direction::kNeutral ||
            (metric.direction == DiffMetric::Direction::kLowerBetter
                 ? delta.delta_pct > 0
                 : delta.delta_pct < 0);
        if (worsened) {
          delta.regression = true;
        } else {
          delta.improvement = true;
        }
      }
      if (delta.regression && !metric.advisory) diff.regression = true;
      diff.metrics.push_back(std::move(delta));
    }

    const int base_slo = slo_verdict(base);
    const int cand_slo = slo_verdict(cand);
    if (base_slo != cand_slo) {
      auto name = [](int v) {
        return v < 0 ? "none" : (v > 0 ? "pass" : "FAIL");
      };
      diff.slo_note = std::string(name(base_slo)) + " -> " + name(cand_slo);
      if (cand_slo == 0) diff.regression = true;
    }
    if (diff.regression) out.regression = true;
    out.runs.push_back(std::move(diff));
  }
  for (const auto& [key, run] : candidates) {
    (void)run;
    out.only_candidate.push_back(key);
  }
  return out;
}

std::string CampaignDiff::table() const {
  std::string out;
  if (!comparable) {
    out = "diff refused: " + error + "\n";
    return out;
  }
  char buf[256];
  for (const RunDiff& run : runs) {
    std::snprintf(buf, sizeof(buf), "%s seed %llu%s%s%s%s\n",
                  run.scenario_id.c_str(),
                  static_cast<unsigned long long>(run.seed),
                  run.system.empty() ? "" : "  [",
                  run.system.empty() ? "" : (run.system + "]").c_str(),
                  run.slo_note.empty() ? "" : "  [slo ",
                  run.slo_note.empty() ? ""
                                       : (run.slo_note + "]").c_str());
    out += buf;
    for (const MetricDelta& m : run.metrics) {
      // Quiet metrics stay out of the table; the JSON verdict has them.
      if (!m.regression && !m.improvement) continue;
      std::snprintf(buf, sizeof(buf), "  %-18s %14.3f -> %14.3f  %+8.2f%% %s\n",
                    m.name.c_str(), m.baseline, m.candidate, m.delta_pct,
                    m.advisory ? "(advisory)"
                               : (m.regression ? "REGRESSION" : "improved"));
      out += buf;
    }
  }
  for (const std::string& key : only_baseline) {
    out += "only in baseline: " + key + "\n";
  }
  for (const std::string& key : only_candidate) {
    out += "only in candidate: " + key + "\n";
  }
  std::snprintf(buf, sizeof(buf),
                "%d run(s) compared: %s\n", static_cast<int>(runs.size()),
                regression ? "REGRESSION" : "ok");
  out += buf;
  return out;
}

std::string CampaignDiff::json() const {
  char buf[256];
  std::string out = "{";
  // Every string goes through the one JSON escaper: a refusal message
  // quotes the key it missed.
  auto quoted = [&out](std::string_view text) {
    out += '"';
    obs::append_escaped(out, text);
    out += '"';
  };
  std::snprintf(buf, sizeof(buf),
                "\"schema_version\": %d, \"kind\": \"gridmon_diff\", "
                "\"comparable\": %s, \"regression\": %s",
                kCampaignSchemaVersion, comparable ? "true" : "false",
                regression ? "true" : "false");
  out += buf;
  if (!comparable) {
    out += ", \"error\": ";
    quoted(error);
    out += "}\n";
    return out;
  }
  out += ", \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunDiff& run = runs[i];
    out += "  {\"scenario\": ";
    quoted(run.scenario_id);
    std::snprintf(buf, sizeof(buf), ", \"seed\": %llu, \"regression\": %s",
                  static_cast<unsigned long long>(run.seed),
                  run.regression ? "true" : "false");
    out += buf;
    if (!run.system.empty()) {
      out += ", \"system\": ";
      quoted(run.system);
    }
    if (!run.slo_note.empty()) {
      out += ", \"slo_change\": ";
      quoted(run.slo_note);
    }
    out += ", \"metrics\": {";
    bool first = true;
    for (const MetricDelta& m : run.metrics) {
      if (!first) out += ", ";
      first = false;
      quoted(m.name);
      std::snprintf(buf, sizeof(buf),
                    ": {\"baseline\": %.6g, \"candidate\": %.6g, "
                    "\"delta_pct\": %.3f, \"verdict\": \"%s\"}",
                    m.baseline, m.candidate, m.delta_pct,
                    m.advisory
                        ? (m.regression || m.improvement ? "advisory" : "ok")
                        : (m.regression
                               ? "regression"
                               : (m.improvement ? "improvement" : "ok")));
      out += buf;
    }
    out += "}}";
    out += i + 1 < runs.size() ? ",\n" : "\n";
  }
  out += "]";
  auto emit_keys = [&](const char* field,
                       const std::vector<std::string>& keys) {
    out += std::string(", \"") + field + "\": [";
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (i > 0) out += ", ";
      quoted(keys[i]);
    }
    out += "]";
  };
  emit_keys("only_baseline", only_baseline);
  emit_keys("only_candidate", only_candidate);
  out += "}\n";
  return out;
}

}  // namespace gridmon::core
