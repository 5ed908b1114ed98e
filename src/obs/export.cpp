#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace gridmon::obs {

void append_escaped(std::string& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

namespace {

/// Virtual nanoseconds -> trace-event microseconds, fixed 3 decimals.
void append_micros(std::string& out, SimTime t) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(t) / 1000.0);
  out += buf;
}

/// Locale-free value formatting: integers print without a fraction,
/// everything else with 6 fixed decimals. Deterministic for identical
/// doubles, which the kernel guarantees across worker counts.
void append_value(std::string& out, double v) {
  char buf[48];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.6f", v);
  }
  out += buf;
}

}  // namespace

std::string chrome_trace_json(const Report& report) {
  std::string out;
  out.reserve(4096 + report.traces.size() * 256);
  out += "{\"schema_version\":" + std::to_string(kExportSchemaVersion) +
         ",\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) out += ",\n";
    first = false;
    out += event;
  };

  emit(R"({"name":"process_name","ph":"M","pid":1,"tid":0,)"
       R"("args":{"name":"gridmon"}})");
  emit(R"({"name":"thread_name","ph":"M","pid":1,"tid":0,)"
       R"("args":{"name":"chaos"}})");

  for (const ChaosSpan& span : report.chaos) {
    std::string event = "{\"name\":\"";
    append_escaped(event, span.name);
    event += "\",\"cat\":\"chaos\",\"pid\":1,\"tid\":0,\"ts\":";
    append_micros(event, span.begin);
    if (span.end > span.begin) {
      event += ",\"ph\":\"X\",\"dur\":";
      append_micros(event, span.end - span.begin);
    } else {
      event += ",\"ph\":\"i\",\"s\":\"t\"";
    }
    event += "}";
    emit(event);
  }

  int tid = 0;
  for (const CompletedTrace& trace : report.traces) {
    ++tid;
    {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "msg %016" PRIx64, trace.key);
      std::string event =
          R"({"name":"thread_name","ph":"M","pid":1,"tid":)";
      event += std::to_string(tid);
      event += ",\"args\":{\"name\":\"";
      event += buf;
      event += "\"}}";
      emit(event);
    }
    for (std::size_t i = 0; i < trace.marks.size(); ++i) {
      const Mark& mark = trace.marks[i];
      std::string event = "{\"name\":\"";
      append_escaped(event, report.stage_names[mark.stage]);
      event += "\",\"cat\":\"hop\",\"pid\":1,\"tid\":";
      event += std::to_string(tid);
      event += ",\"ts\":";
      if (i == 0) {
        append_micros(event, mark.at);
        event += ",\"ph\":\"i\",\"s\":\"t\"";
      } else {
        append_micros(event, trace.marks[i - 1].at);
        event += ",\"ph\":\"X\",\"dur\":";
        append_micros(event, mark.at - trace.marks[i - 1].at);
      }
      event += "}";
      emit(event);
    }
  }
  out += "\n]}\n";
  return out;
}

std::string series_csv(const Report& report) {
  std::string out;
  out.reserve(64 + report.samples.size() * 32 * (report.columns.size() + 1));
  out += "t_ms";
  for (const std::string& column : report.columns) {
    out += ',';
    out += column;
  }
  out += '\n';
  for (const Sample& sample : report.samples) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(sample.at) / 1e6);
    out += buf;
    for (double v : sample.values) {
      out += ',';
      append_value(out, v);
    }
    out += '\n';
  }
  return out;
}

std::string series_json(const Report& report) {
  std::string out;
  out += "{\"schema_version\":" + std::to_string(kExportSchemaVersion) +
         ",\"kind\":\"gridmon_series\",\"columns\":[\"t_ms\"";
  for (const std::string& column : report.columns) {
    out += ",\"";
    append_escaped(out, column);
    out += '"';
  }
  out += "],\"samples\":[";
  for (std::size_t i = 0; i < report.samples.size(); ++i) {
    const Sample& sample = report.samples[i];
    if (i > 0) out += ',';
    out += '[';
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(sample.at) / 1e6);
    out += buf;
    for (double v : sample.values) {
      out += ',';
      append_value(out, v);
    }
    out += ']';
  }
  out += "],\"chaos\":[";
  for (std::size_t i = 0; i < report.chaos.size(); ++i) {
    const ChaosSpan& span = report.chaos[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"";
    append_escaped(out, span.name);
    out += "\",\"begin_ms\":";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(span.begin) / 1e6);
    out += buf;
    out += ",\"end_ms\":";
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(span.end) / 1e6);
    out += buf;
    out += '}';
  }
  out += "]}\n";
  return out;
}

LossSeries loss_percent_series(const Report& report,
                               std::string_view sent_column,
                               std::string_view received_column) {
  LossSeries series;
  std::size_t sent_col = report.columns.size();
  std::size_t recv_col = report.columns.size();
  for (std::size_t i = 0; i < report.columns.size(); ++i) {
    if (report.columns[i] == sent_column) sent_col = i;
    if (report.columns[i] == received_column) recv_col = i;
  }
  if (sent_col == report.columns.size() ||
      recv_col == report.columns.size()) {
    return series;
  }
  for (std::size_t i = 1; i < report.samples.size(); ++i) {
    const Sample& prev = report.samples[i - 1];
    const Sample& cur = report.samples[i];
    const double sent = cur.values[sent_col] - prev.values[sent_col];
    const double received = cur.values[recv_col] - prev.values[recv_col];
    double loss = 0.0;
    if (sent > 0.0) loss = std::max(0.0, 100.0 * (1.0 - received / sent));
    series.at.push_back(cur.at);
    series.loss_pct.push_back(loss);
  }
  return series;
}

}  // namespace gridmon::obs
