// The hier/* scenario family: hierarchical aggregation scale sweeps.
//
// hier/{narada,rgma,mqtt}/{10k,50k,200k,1m} sweep the generator tier far
// past the flat OOM walls (~3900 Narada connections, ~780 R-GMA producers)
// by terminating generator links on edge aggregators; only the regional
// tier holds backend clients. hier/ablation/* pins the three architectures
// against each other at 10k generators: a flat connection-per-generator
// Narada fleet (which honestly hits the wall), a pure broker tree (raw
// pass-through at both tiers), and edge aggregation (mean-reduced frames).
#include "core/registry.hpp"
#include "core/scenarios.hpp"

namespace gridmon::core {

namespace {

[[nodiscard]] HierConfig hier_preset(HierBackend backend,
                                     std::int64_t generators,
                                     std::int64_t edge_fan_in,
                                     std::int64_t regional_fan_in) {
  HierConfig config;
  config.backend = backend;
  config.topology.generators = generators;
  config.topology.edge.fan_in = edge_fan_in;
  config.topology.regional.fan_in = regional_fan_in;
  // Sub-period windows keep worst-case batching delay (one edge window +
  // one regional window + hops) inside the 5 s soft deadline.
  config.topology.edge.window = units::seconds(2);
  config.topology.regional.window = units::seconds(2);
  config.topology.edge.reduce = hier::Reduce::kMean;
  config.topology.regional.reduce = hier::Reduce::kMean;
  // Scale sweeps are the memory story: obs (and with it memprof) on by
  // default so the campaign's peak_model_bytes / bytes-per-generator
  // columns populate.
  config.obs.enabled = true;
  return config;
}

[[nodiscard]] const char* scale_name(std::int64_t generators) {
  switch (generators) {
    case 10'000:
      return "10k";
    case 50'000:
      return "50k";
    case 200'000:
      return "200k";
    case 1'000'000:
      return "1m";
  }
  return "custom";
}

}  // namespace

void register_hier_scenarios(ScenarioRegistry& reg) {
  struct Scale {
    std::int64_t generators;
    std::int64_t edge_fan_in;
    std::int64_t regional_fan_in;
  };
  // Shapes chosen so the regional tier stays well under the flat OOM wall
  // (20-80 backend connections) while edges keep realistic fan-ins.
  constexpr Scale kScales[] = {
      {10'000, 50, 10},    // 200 edges, 20 regionals
      {50'000, 100, 10},   // 500 edges, 50 regionals
      {200'000, 200, 20},  // 1000 edges, 50 regionals
      {1'000'000, 500, 25},  // 2000 edges, 80 regionals
  };
  constexpr HierBackend kBackends[] = {HierBackend::kNarada,
                                       HierBackend::kRgma, HierBackend::kMqtt};
  for (HierBackend backend : kBackends) {
    for (const Scale& scale : kScales) {
      reg.add({std::string("hier/") + to_string(backend) + "/" +
                   scale_name(scale.generators),
               std::string("Scale sweep: ") + scale_name(scale.generators) +
                   " generators -> edge aggregation -> " +
                   to_string(backend) + " regional publishers",
               hier_preset(backend, scale.generators, scale.edge_fan_in,
                           scale.regional_fan_in)});
    }
  }

  // Flat vs tree vs edge aggregation at 10k generators. The flat arm is a
  // genuine connection-per-generator Narada fleet: it refuses ~60% of the
  // fleet at the broker's heap wall, which is exactly the point.
  {
    NaradaConfig flat = scenarios::narada_single(10'000);
    flat.obs.enabled = true;
    reg.add({"hier/ablation/flat_10k",
             "Ablation: flat connection-per-generator Narada fleet at 10k "
             "(hits the heap wall)",
             flat});
  }
  {
    HierConfig tree = hier_preset(HierBackend::kNarada, 10'000, 50, 10);
    tree.topology.edge.reduce = hier::Reduce::kRaw;
    tree.topology.regional.reduce = hier::Reduce::kRaw;
    reg.add({"hier/ablation/tree_10k",
             "Ablation: pure broker tree at 10k (raw pass-through frames, "
             "no reduction)",
             tree});
  }
  reg.add({"hier/ablation/edge_10k",
           "Ablation: edge aggregation at 10k (mean-reduced frames at both "
           "tiers)",
           hier_preset(HierBackend::kNarada, 10'000, 50, 10)});
}

}  // namespace gridmon::core
