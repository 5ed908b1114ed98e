// Hierarchical aggregation harness: see core/hier_experiment.hpp. The
// backend server keeps host 0 and the root subscriber host 1, as in the
// flat harnesses; regionals round-robin over the other hosts. Generators
// and edges are flyweight state (hier::FleetState) synthesised at window
// close (hier::EdgeAggregator), so only regionals × clients scale with the
// tree. Regionals publish frames through the flat fleets' BackendPort; the
// scaffold's ledger accounts each delivered frame per sample.

#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hier_experiment.hpp"
#include "core/run_scaffold.hpp"
#include "hier/aggregator.hpp"
#include "util/intern.hpp"

namespace gridmon::core {

const char* to_string(HierBackend backend) {
  switch (backend) {
    case HierBackend::kNarada: return "narada";
    case HierBackend::kRgma: return "rgma";
    case HierBackend::kMqtt: return "mqtt";
  }
  return "unknown";
}

namespace {

/// One regional publisher: this subtree's EdgeAggregators, a
/// RegionalAggregator and the port client carrying its frames. A refused
/// connection (the server's OOM wall) silences the subtree and counts one
/// refusal per *descendant generator*, comparable with flat runs.
class Regional {
 public:
  Regional(RunScaffold& run, BackendPort& port, const hier::TreeConfig& tree,
           util::StringTable& names, std::int64_t id)
      : run_(run),
        port_(port),
        tree_(tree),
        id_(id),
        rng_(run.sim().rng_stream("hier.regional").stream(
            static_cast<std::uint64_t>(id))),
        aggregator_(tree, id,
                    [this](hier::UpstreamFrame frame) {
                      publish(std::move(frame));
                    }),
        names_(names),
        // One shared arena instead of per-node topic strings.
        topic_(names.intern("powergrid/region" + std::to_string(id) +
                            "/agg")) {
    for (std::int64_t e = tree.shape.edge_begin(id);
         e < tree.shape.edge_end(id); ++e) {
      edges_.emplace_back(tree, e);
    }
    next_window_.assign(edges_.size(), 0);
  }

  void start() {
    port_.connect(id_, [this](bool ok) {
      if (!ok) {
        run_.refuse(static_cast<std::uint64_t>(
            tree_.shape.generators_under(id_)));
        return;
      }
      start_tree();
    });
  }

 private:
  void start_tree() {
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      run_.sim().schedule_at(edges_[i].close_time(0),
                             [this, i] { run_edge(i); });
    }
    const SimTime window = tree_.spec.regional.window;
    const SimTime first = tree_.epoch + window + aggregator_.flush_offset();
    flush_timer_ = sim::PeriodicTimer(run_.sim(), first, window,
                                      [this] { aggregator_.flush(); });
  }

  void run_edge(std::size_t i) {
    const std::int64_t window = next_window_[i]++;
    std::int64_t generated = 0;
    hier::EdgeFrame frame = edges_[i].close_window(window, generated);
    if (generated > 0) {
      run_.metrics().count_sent(static_cast<std::uint64_t>(generated));
    }
    if (frame.collected > 0) aggregator_.deliver(std::move(frame));
    if (next_window_[i] < tree_.windows) {
      run_.sim().schedule_at(edges_[i].close_time(next_window_[i]),
                             [this, i] { run_edge(i); });
    }
  }

  /// A frame is sent as of its oldest sample, so its RTT is the worst
  /// staleness it imposed on any sample it carries.
  void publish(hier::UpstreamFrame frame) {
    port_.publish({.publisher = id_,
                   .seq = sequence_++,
                   .bytes = frame.bytes,
                   .before = frame.oldest_send,
                   .topic = names_.view(topic_),
                   .segments = std::move(frame.segments)},
                  rng_);
  }

  RunScaffold& run_;
  BackendPort& port_;
  const hier::TreeConfig& tree_;
  std::int64_t id_;
  util::Rng rng_;
  hier::RegionalAggregator aggregator_;
  util::StringTable& names_;
  util::StringTable::Id topic_;
  std::vector<hier::EdgeAggregator> edges_;
  std::vector<std::int64_t> next_window_;
  sim::PeriodicTimer flush_timer_;
  std::int64_t sequence_ = 0;
};

}  // namespace

Results run_hier_experiment(const HierConfig& config) {
  const hier::TopologySpec::Expansion shape = config.topology.expand();

  cluster::HydraConfig hydra;
  if (config.server_memory_budget > 0) {
    hydra.host.memory_budget = config.server_memory_budget;
  }
  RunScaffold run(config, FaultPlan{}, config.topology.generators, hydra);
  if (run.hydra().node_count() <= 2) {
    throw std::invalid_argument(
        "run_hier_experiment: regionals need hosts besides the server's (0) "
        "and the root's (1)");
  }
  hier::TreeConfig tree;
  tree.spec = config.topology;
  tree.shape = shape;
  tree.epoch = RunScaffold::kStartTime +
               config.creation_interval * shape.regionals + units::seconds(1);
  tree.windows = config.duration / config.topology.edge.window;
  if (tree.windows < 1) tree.windows = 1;
  run.account_samples(tree);

  // Observability first so the flyweight allocations below are accounted.
  run.install_obs();
  // The flyweight fleet: a few dozen bytes for the whole generator tier,
  // shared by every edge.
  hier::FleetState fleet(config.topology, config.seed);
  tree.fleet = &fleet;
  obs::mem_add(obs::MemCategory::kHier, fleet.bytes());

  const std::unique_ptr<BackendPort> port =
      config.backend == HierBackend::kNarada ? make_narada_port(run, {}, true)
      : config.backend == HierBackend::kRgma ? make_rgma_port(run, {}, true)
                                             : make_mqtt_port(run, {}, true);
  port->subscribe();

  // Regional publishers, created on the connection stagger.
  util::StringTable names;
  std::deque<Regional> regionals;
  for (std::int64_t r = 0; r < shape.regionals; ++r) {
    Regional* regional = &regionals.emplace_back(run, *port, tree, names, r);
    port->add_publisher(r);
    run.sim().schedule_at(
        RunScaffold::kStartTime + config.creation_interval * r,
        [regional] { regional->start(); });
  }
  obs::mem_add(obs::MemCategory::kHier, names.bytes());

  using enum obs::MemCategory;
  Series series{{{"frames_published", [&run] { return run.opened(); }},
                 {"frames_delivered", [&run] { return run.delivered(); }}},
                {kHier, kNetConnections, kKernelSlab},
                {}};
  return run.execute(*port, tree.epoch, std::move(series));
}

}  // namespace gridmon::core
