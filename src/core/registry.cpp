#include "core/registry.hpp"

#include <stdexcept>

#include "core/report.hpp"
#include "core/scenarios.hpp"

namespace gridmon::core {

// Defined in chaos_scenarios.cpp: the chaos/* fault-injection family.
void register_chaos_scenarios(ScenarioRegistry& registry);
// Defined in mqtt_scenarios.cpp: the mqtt/* modern-baseline family.
void register_mqtt_scenarios(ScenarioRegistry& registry);
// Defined in hier_scenarios.cpp: the hier/* scale-sweep family.
void register_hier_scenarios(ScenarioRegistry& registry);

namespace {
template <typename... Fs>
struct Overload : Fs... {
  using Fs::operator()...;
};
}  // namespace

const char* ScenarioSpec::system() const {
  return std::visit(
      [](const auto& config) -> const char* {
        using T = std::decay_t<decltype(config)>;
        if constexpr (std::is_same_v<T, HierConfig>) {
          // A hier scenario's "system" is the backend its regional tier
          // publishes into — the column exists to compare middlewares.
          return to_string(config.backend);
        } else {
          return T::kBackend;
        }
      },
      config);
}

Results run_scenario(const ScenarioSpec& spec, SimTime duration,
                     std::uint64_t seed, const obs::Options& obs) {
  const auto run_harness = Overload{
      [](const NaradaConfig& c) { return run_narada_experiment(c); },
      [](const RgmaConfig& c) { return run_rgma_experiment(c); },
      [](const MqttConfig& c) { return run_mqtt_experiment(c); },
      [](const HierConfig& c) { return run_hier_experiment(c); }};
  if (spec.fixed_window > 0) duration = spec.fixed_window;
  Results results = std::visit(
      [&](auto config) {
        config.duration = duration;
        config.seed = seed;
        if (obs.enabled) config.obs = obs;
        return run_harness(config);
      },
      spec.config);
  // SLO verdicts ride on every run of a spec that declares objectives;
  // evaluation is pure arithmetic over deterministic fields, so the
  // verdict columns inherit the campaign determinism contract.
  if (!spec.slo.empty()) {
    results.slo = evaluate_slo(spec.slo, results, duration);
  }
  return results;
}

void ScenarioRegistry::add(ScenarioSpec spec) {
  if (find(spec.id) != nullptr) {
    throw std::invalid_argument("duplicate scenario id: " + spec.id);
  }
  specs_.push_back(std::move(spec));
}

const ScenarioSpec* ScenarioRegistry::find(std::string_view id) const {
  for (const auto& spec : specs_) {
    if (spec.id == id) return &spec;
  }
  return nullptr;
}

std::vector<const ScenarioSpec*> ScenarioRegistry::match(
    std::string_view prefix) const {
  std::vector<const ScenarioSpec*> out;
  for (const auto& spec : specs_) {
    if (std::string_view(spec.id).substr(0, prefix.size()) == prefix) {
      out.push_back(&spec);
    }
  }
  return out;
}

namespace {

std::string slug(std::string_view label) {
  std::string out;
  for (char c : label) {
    if (c >= 'A' && c <= 'Z') {
      out += static_cast<char>(c - 'A' + 'a');
    } else if (c == ' ') {
      out += '_';
    } else {
      out += c;
    }
  }
  return out;
}

ScenarioRegistry build_catalogue() {
  ScenarioRegistry reg;

  // Table II / Fig 3 / Fig 4 / §III.E loss: the six comparison tests.
  for (const auto& test : scenarios::narada_comparison_tests()) {
    reg.add({"narada/comparison/" + slug(test.label),
             "Table II + Figs 3-4: comparison test \"" + test.label +
                 "\" (" + std::to_string(test.config.fleet.generators) +
                 " generators, single broker)",
             test.config});
  }

  // Figs 6-8 + Table III + Fig 15: single-broker scaling points (400 is
  // the Fig 15 decomposition point, 800 the Table III probe).
  for (int n : {400, 500, 800, 1000, 2000, 3000, 4000}) {
    reg.add({"narada/single/" + std::to_string(n),
             "Figs 6-8: single broker, " + std::to_string(n) +
                 " concurrent connections",
             scenarios::narada_single(n)});
  }

  // Figs 6, 7, 9 + Table III: DBN scaling points.
  for (int n : {2000, 3000, 4000, 5000}) {
    reg.add({"narada/dbn/" + std::to_string(n),
             "Figs 6, 7, 9: 4-broker DBN (broadcast deficiency), " +
                 std::to_string(n) + " connections",
             scenarios::narada_dbn(n)});
  }

  // Ablation: the predicted v1.1.3 fix — subscription-aware routing.
  for (int n : {2000, 3000, 4000}) {
    NaradaConfig config = scenarios::narada_dbn(n);
    config.subscription_aware_routing = true;
    reg.add({"narada/dbn_routed/" + std::to_string(n),
             "Ablation: DBN with subscription-aware routing (the fixed "
             "deficiency), " +
                 std::to_string(n) + " connections",
             config});
  }

  // Ablation: full transport x acknowledgement-mode matrix at 800 conns.
  for (auto transport :
       {narada::TransportKind::kTcp, narada::TransportKind::kNio,
        narada::TransportKind::kUdp}) {
    for (auto ack : {jms::AcknowledgeMode::kAutoAcknowledge,
                     jms::AcknowledgeMode::kClientAcknowledge}) {
      NaradaConfig config = scenarios::narada_single(800);
      config.transport = transport;
      config.ack_mode = ack;
      const std::string ack_name =
          ack == jms::AcknowledgeMode::kClientAcknowledge ? "client" : "auto";
      reg.add({"narada/matrix/" + slug(narada::to_string(transport)) + "/" +
                   ack_name,
               "Ablation: 800 connections over " +
                   std::string(narada::to_string(transport)) + " with " +
                   (ack == jms::AcknowledgeMode::kClientAcknowledge
                        ? "CLIENT_ACKNOWLEDGE"
                        : "AUTO_ACKNOWLEDGE"),
               config});
    }
  }

  // Ablation: persistent delivery (the knob §III.E held at non-persistent).
  {
    NaradaConfig config = scenarios::narada_single(800);
    config.delivery_mode = jms::DeliveryMode::kPersistent;
    reg.add({"narada/persistent/800",
             "Ablation: persistent JMS delivery at 800 connections "
             "(stable-storage write per event)",
             config});
  }

  // Figs 11-13 + Table III + Fig 15: R-GMA single-server scaling points.
  for (int n : {100, 200, 400, 600, 800}) {
    reg.add({"rgma/single/" + std::to_string(n),
             "Figs 11-13: Primary Producer + Consumer on one server, " +
                 std::to_string(n) + " connections",
             scenarios::rgma_single(n)});
  }

  // Figs 11, 13, 14 + Table III: distributed R-GMA.
  for (int n : {200, 400, 600, 800, 1000}) {
    reg.add({"rgma/distributed/" + std::to_string(n),
             "Figs 11, 13, 14: distributed R-GMA (2 producer + 2 consumer "
             "nodes), " +
                 std::to_string(n) + " connections",
             scenarios::rgma_distributed(n)});
  }

  // Fig 10: Primary + Secondary Producer chain.
  for (int n : {50, 100, 200}) {
    reg.add({"rgma/secondary/" + std::to_string(n),
             "Fig 10: Primary + Secondary Producer chain (30 s deliberate "
             "delay), " +
                 std::to_string(n) + " connections",
             scenarios::rgma_with_secondary(n)});
  }

  // Ablation: sweep the Secondary Producer's deliberate delay.
  for (int s : {0, 5, 15, 30}) {
    RgmaConfig config = scenarios::rgma_with_secondary(100);
    config.secondary_delay = units::seconds(s);
    reg.add({"rgma/secondary_delay/" + std::to_string(s),
             "Ablation: Secondary Producer deliberate delay at " +
                 std::to_string(s) + " s (100 connections)",
             config});
  }

  // §III.F: the no-warm-up loss experiment.
  reg.add({"rgma/no_warmup",
           "SIII.F loss: 400 producers publishing immediately (paper "
           "measured 0.17% loss)",
           scenarios::rgma_no_warmup()});

  // Ablations: HTTPS between components; legacy StreamProducer path.
  {
    RgmaConfig config = scenarios::rgma_single(200);
    config.secure = true;
    reg.add({"rgma/https/200",
             "Ablation: HTTPS between R-GMA components at 200 connections",
             config});
  }
  {
    RgmaConfig config = scenarios::rgma_single(200);
    config.legacy_stream_api = true;
    reg.add({"rgma/legacy/200",
             "Ablation: legacy StreamProducer/Archiver path ([11], "
             "SIII.F.3) at 200 connections",
             config});
  }

  register_mqtt_scenarios(reg);
  register_hier_scenarios(reg);

  // Ablations on one gateway publisher (a node concentrating many
  // generators) through a single broker. They are fixed-rate
  // microbenchmarks: 120 s of publishing at any campaign duration.
  const auto gateway = [](SimTime period) {
    NaradaConfig config = scenarios::narada_single(1);
    // No ramp: the steady window vmstat measures opens with the first
    // publish.
    config.fleet.creation_interval = 0;
    config.fleet.warmup_min = 0;
    config.fleet.warmup_max = 0;
    config.fleet.publish_period = period;
    return config;
  };
  constexpr SimTime kAblationWindow = units::seconds(120);
  // Related work §IV: sender-side aggregation (IBM RMM) at 1,000 msg/s.
  for (int batch : {1, 2, 4, 8, 16, 32}) {
    NaradaConfig config = gateway(units::milliseconds(1));
    config.aggregation_batch = batch;
    reg.add({"ablation/aggregation/" + std::to_string(batch),
             "Ablation (SIV related work): sender-side aggregation, batch " +
                 std::to_string(batch) + ", one 1,000 msg/s gateway publisher",
             config, {}, kAblationWindow});
  }
  // §III.D: the Web Services data path the paper rejected, 150 msg/s.
  NaradaConfig webservices = gateway(units::seconds(1) / 150);
  reg.add({"ablation/webservices/binary",
           "Ablation (SIII.D): 150 msg/s monitoring stream over binary JMS "
           "(baseline)",
           webservices, {}, kAblationWindow});
  webservices.soap_proxy = true;
  reg.add({"ablation/webservices/soap",
           "Ablation (SIII.D): the same stream SOAP-encoded through "
           "Web-Services proxies",
           webservices, {}, kAblationWindow});

  register_chaos_scenarios(reg);
  return reg;
}

}  // namespace

const ScenarioRegistry& builtin_registry() {
  static const ScenarioRegistry registry = build_catalogue();
  return registry;
}

}  // namespace gridmon::core
