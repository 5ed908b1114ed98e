#include "hier/topology.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace gridmon::hier {

namespace {

[[nodiscard]] std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

void check(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("TopologySpec: ") + what);
}

}  // namespace

TopologySpec::Expansion TopologySpec::expand() const {
  check(generators > 0, "generators must be positive");
  check(sample_period > 0, "sample_period must be positive");
  check(edge.fan_in > 0, "edge fan_in must be positive");
  check(regional.fan_in > 0, "regional fan_in must be positive");
  check(edge.window > 0, "edge window must be positive");
  check(regional.window > 0, "regional window must be positive");
  // FleetState places generator j of an edge in the j-th of fan_in slots
  // of the period in int64 arithmetic, up to fan_in × sample_period.
  check(edge.fan_in <= std::numeric_limits<std::int64_t>::max() / sample_period,
        "edge fan_in × sample_period overflows int64");
  check(edge_loss >= 0.0 && edge_loss < 1.0, "edge loss must be in [0, 1)");

  Expansion out;
  out.generators = generators;
  out.edge_fan_in = edge.fan_in;
  out.regional_fan_in = regional.fan_in;
  out.edges = ceil_div(generators, edge.fan_in);
  out.regionals = ceil_div(out.edges, regional.fan_in);
  return out;
}

}  // namespace gridmon::hier
