#include "hier/topology.hpp"

#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace gridmon::hier {

std::string_view to_string(Reduce reduce) {
  switch (reduce) {
    case Reduce::kRaw:
      return "raw";
    case Reduce::kSum:
      return "sum";
    case Reduce::kMean:
      return "mean";
    case Reduce::kLast:
      return "last";
  }
  return "unknown";
}

Reduce parse_reduce(std::string_view name) {
  if (name == "raw") return Reduce::kRaw;
  if (name == "sum") return Reduce::kSum;
  if (name == "mean") return Reduce::kMean;
  if (name == "last") return Reduce::kLast;
  throw std::invalid_argument("unknown reduce: " + std::string(name));
}

namespace {

[[nodiscard]] std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

void check(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("TopologySpec: ") + what);
}

void serialise_tier(std::string& out, const char* name, const TierSpec& tier) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "tier %s fan_in %lld latency_ns %lld jitter_ns %lld loss %.9g "
                "reduce %s window_ns %lld\n",
                name, static_cast<long long>(tier.fan_in),
                static_cast<long long>(tier.link.latency),
                static_cast<long long>(tier.link.jitter), tier.link.loss,
                std::string(to_string(tier.reduce)).c_str(),
                static_cast<long long>(tier.window));
  out += buffer;
}

TierSpec parse_tier(std::istringstream& line) {
  TierSpec tier;
  std::string key, reduce_name;
  long long fan_in = 0, latency = 0, jitter = 0, window = 0;
  double loss = 0.0;
  // Fixed field order, mirroring serialise_tier.
  if (!(line >> key >> fan_in) || key != "fan_in" ||
      !(line >> key >> latency) || key != "latency_ns" ||
      !(line >> key >> jitter) || key != "jitter_ns" ||
      !(line >> key >> loss) || key != "loss" ||
      !(line >> key >> reduce_name) || key != "reduce" ||
      !(line >> key >> window) || key != "window_ns") {
    throw std::invalid_argument("TopologySpec: malformed tier line");
  }
  tier.fan_in = fan_in;
  tier.link.latency = latency;
  tier.link.jitter = jitter;
  tier.link.loss = loss;
  tier.reduce = parse_reduce(reduce_name);
  tier.window = window;
  return tier;
}

}  // namespace

TopologySpec::Expansion TopologySpec::expand() const {
  check(generators > 0, "generators must be positive");
  check(sample_period > 0, "sample_period must be positive");
  check(sample_bytes > 0, "sample_bytes must be positive");
  check(edge.fan_in > 0, "edge fan_in must be positive");
  check(regional.fan_in > 0, "regional fan_in must be positive");
  check(edge.window > 0, "edge window must be positive");
  check(regional.window > 0, "regional window must be positive");
  // FleetState places generator j of an edge in the j-th of fan_in slots
  // of the period in int64 arithmetic, up to fan_in × sample_period.
  check(edge.fan_in <= std::numeric_limits<std::int64_t>::max() / sample_period,
        "edge fan_in × sample_period overflows int64");
  check(edge.link.loss >= 0.0 && edge.link.loss < 1.0,
        "edge link loss must be in [0, 1)");
  // FleetState draws loss only on the generator→edge hop; reject rather
  // than silently ignore a regional-tier loss setting.
  check(regional.link.loss == 0.0,
        "regional link loss is not modelled and must be 0");

  Expansion out;
  out.generators = generators;
  out.edge_fan_in = edge.fan_in;
  out.regional_fan_in = regional.fan_in;
  out.edges = ceil_div(generators, edge.fan_in);
  out.regionals = ceil_div(out.edges, regional.fan_in);
  return out;
}

std::string TopologySpec::serialise() const {
  std::string out;
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "generators %lld\n",
                static_cast<long long>(generators));
  out += buffer;
  std::snprintf(buffer, sizeof(buffer), "sample_period_ns %lld\n",
                static_cast<long long>(sample_period));
  out += buffer;
  std::snprintf(buffer, sizeof(buffer), "sample_bytes %lld\n",
                static_cast<long long>(sample_bytes));
  out += buffer;
  serialise_tier(out, "edge", edge);
  serialise_tier(out, "regional", regional);
  return out;
}

TopologySpec TopologySpec::parse(std::string_view text) {
  TopologySpec spec;
  bool saw_edge = false, saw_regional = false;
  std::istringstream stream{std::string(text)};
  std::string line_text;
  while (std::getline(stream, line_text)) {
    if (line_text.empty()) continue;
    std::istringstream line(line_text);
    std::string key;
    line >> key;
    if (key == "generators") {
      if (!(line >> spec.generators)) {
        throw std::invalid_argument("TopologySpec: malformed generators");
      }
    } else if (key == "sample_period_ns") {
      long long v = 0;
      if (!(line >> v)) {
        throw std::invalid_argument("TopologySpec: malformed sample_period");
      }
      spec.sample_period = v;
    } else if (key == "sample_bytes") {
      if (!(line >> spec.sample_bytes)) {
        throw std::invalid_argument("TopologySpec: malformed sample_bytes");
      }
    } else if (key == "tier") {
      std::string name;
      line >> name;
      if (name == "edge") {
        spec.edge = parse_tier(line);
        saw_edge = true;
      } else if (name == "regional") {
        spec.regional = parse_tier(line);
        saw_regional = true;
      } else {
        throw std::invalid_argument("TopologySpec: unknown tier " + name);
      }
    } else {
      throw std::invalid_argument("TopologySpec: unknown key " + key);
    }
  }
  if (!saw_edge || !saw_regional) {
    throw std::invalid_argument("TopologySpec: missing tier line");
  }
  return spec;
}

}  // namespace gridmon::hier
