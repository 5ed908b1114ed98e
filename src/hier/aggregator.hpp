// Edge and regional aggregators: the middle tiers of the hierarchy.
//
// An EdgeAggregator terminates one group of generator links on a simulated
// host. It never stores per-sample state: when a window closes it counts
// its generators' samples from the shared FleetState (send times and
// per-sample loss draws are pure functions of the seed), sizes the frame
// per the tier policy, and emits one EdgeFrame. A
// RegionalAggregator buffers the frames of its child edges and flushes
// them upstream on its own window — either re-publishing each child frame
// (raw pass-through: a pure broker tree) or folding them into one
// aggregate publish. The actual backend client (Narada/R-GMA/MQTT) lives
// in the experiment harness; the regional hands it finished UpstreamFrames
// through a callback, so this layer depends on nothing middleware-specific.
//
// Accounting contract: each EdgeFrame carries the count of samples it
// collected, which the root adds to its received count. A frame whose
// oldest sample missed the deadline may hold other late samples; for those
// the root re-walks the frame's samples with for_each_sample(), which is
// built on the same for_each_range() enumeration the edge uses, so the two
// sides agree on exactly which samples a frame covers without shipping or
// storing any of them.
//
// The edge leans on one invariant: an edge's phases never decrease with
// the generator index, and each (period, range) pair for_each_range()
// yields lies in a later period than the one before. So a window's
// samples come out in send-time order, and the edge takes its oldest
// sample from the first collected generator, with one phase() call per
// window rather than one per sample. On a lossless link every sample of a
// range is collected, so a window costs one step per period it overlaps;
// a lossy link draws each sample's loss.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "hier/fleet.hpp"
#include "hier/topology.hpp"

namespace gridmon::hier {

/// Modelled wire overhead of an aggregate frame and of one reduced record
/// (edge id + window + count + value), vs `sample_bytes` per raw record.
constexpr std::int64_t kFrameHeaderBytes = 32;
constexpr std::int64_t kAggRecordBytes = 24;

/// Bytes the model-memory profile (obs/memprof) charges the regional tier
/// per buffered EdgeFrame. A fixed number rather than sizeof, so the memory
/// figures do not follow host struct layout; it is the x86-64 GCC 12 size
/// of EdgeFrame when the figure was pinned (the fleet's own charge,
/// kFleetStateBytes, is pinned the same way).
constexpr std::int64_t kEdgeFrameBytes = 48;

/// Shared immutable run shape: one instance per experiment, referenced by
/// every edge and regional (the flyweight's intrinsic state).
struct TreeConfig {
  TopologySpec spec;
  TopologySpec::Expansion shape;
  const FleetState* fleet = nullptr;
  SimTime epoch = 0;           ///< window 0 opens here (the steady epoch)
  std::int64_t windows = 0;    ///< edge windows per run

  /// Deterministic per-child spread in [0, jitter], hashed from the child
  /// index — no RNG draws, so expansion stays seedless.
  [[nodiscard]] static SimTime spread(std::int64_t child, SimTime jitter) {
    if (jitter <= 0) return 0;
    std::uint64_t s = static_cast<std::uint64_t>(child) + 0x9E3779B97F4A7C15ULL;
    return static_cast<SimTime>(util::splitmix64(s) %
                                static_cast<std::uint64_t>(jitter + 1));
  }

  /// Walk the sample periods edge window `window` overlaps, in time order:
  /// `fn(sample_index, period_start, range)` per period, where
  /// `period_start` is relative to the epoch and `range` holds the edge's
  /// generators g whose sample `sample_index`, sent at
  /// epoch + period_start + phase(g), falls inside the window. The one map
  /// from an edge window to its samples: the edge and for_each_sample()
  /// both use it, so the cost is the window's samples, not the edge's
  /// generators.
  template <typename Fn>
  void for_each_range(std::int64_t edge, std::int64_t window, Fn&& fn) const {
    const SimTime period = spec.sample_period;
    const SimTime begin = window * spec.edge.window;  // relative to epoch
    const SimTime end = begin + spec.edge.window;
    for (std::int64_t i = begin / period; i * period < end; ++i) {
      const SimTime start = i * period;
      fn(i, start,
         fleet->phased_in(edge, begin > start ? begin - start : 0,
                          end - start < period ? end - start : period));
    }
  }

  /// Walk every sample of edge `edge` whose send time falls inside edge
  /// window `window` — including the ones lost on the generator→edge link
  /// (`fn(generator, sample_index, send_time, lost)`), in (sample index,
  /// generator) order, which is send-time order. The per-sample definition
  /// of a window: the root's late count walks it, and close_window()
  /// computes the same results per range.
  template <typename Fn>
  void for_each_sample(std::int64_t edge, std::int64_t window, Fn&& fn) const {
    for_each_range(edge, window, [&](std::int64_t i, SimTime start,
                                     FleetState::Range range) {
      for (std::int64_t g = range.begin; g < range.end; ++g) {
        fn(g, i, epoch + start + fleet->phase(g), fleet->sample_lost(g, i));
      }
    });
  }
};

/// One edge's output for one window.
struct EdgeFrame {
  std::int64_t edge = 0;
  std::int64_t window = 0;
  std::int64_t collected = 0;  ///< samples that survived the generator link
  std::int64_t bytes = 0;      ///< modelled wire size of this frame
  SimTime oldest_send = 0;     ///< earliest collected sample's send time
};

class EdgeAggregator {
 public:
  EdgeAggregator(const TreeConfig& config, std::int64_t edge)
      : config_(config), edge_(edge) {}

  /// When window `w`'s frame reaches this edge's regional: window end,
  /// plus the generator→edge hop (waiting for the window's last samples),
  /// plus the edge→regional hop with this edge's deterministic spread.
  [[nodiscard]] SimTime close_time(std::int64_t window) const;

  /// Count window `w` into one frame. `generated` returns the number of
  /// samples the generators emitted (collected + lost) for sent-side
  /// accounting. A window nobody sampled in yields collected == 0 and the
  /// caller drops the frame.
  [[nodiscard]] EdgeFrame close_window(std::int64_t window,
                                       std::int64_t& generated) const;

  [[nodiscard]] std::int64_t id() const { return edge_; }

 private:
  const TreeConfig& config_;
  std::int64_t edge_;
};

/// A frame the regional tier publishes upstream into the backend. Carries
/// the covered edge frames so the root can recompute per-sample accounting.
struct UpstreamFrame {
  std::int64_t regional = 0;
  std::int64_t bytes = 0;
  std::int64_t collected = 0;
  SimTime oldest_send = 0;
  std::vector<EdgeFrame> segments;
};

class RegionalAggregator {
 public:
  /// `publish` hands a finished frame to the harness (which owns the
  /// backend client). Called from flush().
  using PublishFn = std::function<void(UpstreamFrame)>;

  RegionalAggregator(const TreeConfig& config, std::int64_t regional,
                     PublishFn publish)
      : config_(config), regional_(regional), publish_(std::move(publish)) {}

  /// An edge frame arrived over the edge→regional link.
  void deliver(EdgeFrame frame);

  /// Regional window close: publish everything pending. Raw pass-through
  /// re-publishes each child frame; a reducing tier folds them into one
  /// aggregate frame with one record per child edge frame.
  void flush();

  /// Delay after a regional window end that guarantees the covered edge
  /// frames have arrived (worst-case edge close + uplink).
  [[nodiscard]] SimTime flush_offset() const {
    return 2 * (kLinkLatency + kLinkJitter) + units::milliseconds(1);
  }

  [[nodiscard]] std::int64_t id() const { return regional_; }
  [[nodiscard]] std::int64_t pending() const {
    return static_cast<std::int64_t>(pending_.size());
  }

 private:
  const TreeConfig& config_;
  std::int64_t regional_;
  PublishFn publish_;
  std::vector<EdgeFrame> pending_;
};

}  // namespace gridmon::hier
