#include "hier/aggregator.hpp"

#include <utility>

#include "obs/memprof.hpp"

namespace gridmon::hier {

SimTime EdgeAggregator::close_time(std::int64_t window) const {
  // The edge waits out the generator→edge hop (so the window's last
  // samples have arrived), then ships the frame over its edge→regional
  // link with a deterministic per-edge spread.
  const TopologySpec& spec = config_.spec;
  return config_.epoch + (window + 1) * spec.edge.window + kLinkLatency +
         kLinkJitter + kLinkLatency + TreeConfig::spread(edge_, kLinkJitter);
}

EdgeFrame EdgeAggregator::close_window(std::int64_t window,
                                       std::int64_t& generated) const {
  EdgeFrame frame;
  frame.edge = edge_;
  frame.window = window;
  generated = 0;

  // Ranges come in send-time order (see the accounting contract), so the
  // first collected sample is the oldest. A lossless link collects a whole
  // range at once; a lossy one draws each sample's loss.
  const FleetState& fleet = *config_.fleet;
  config_.for_each_range(edge_, window, [&](std::int64_t k, SimTime start,
                                            FleetState::Range range) {
    generated += range.end - range.begin;
    std::int64_t first = range.begin;  // the first collected generator
    std::int64_t collected = range.end - range.begin;
    if (fleet.lossy()) {
      collected = 0;
      for (std::int64_t g = range.begin; g < range.end; ++g) {
        if (fleet.sample_lost(g, k)) continue;
        if (collected++ == 0) first = g;
      }
    }
    if (collected == 0) return;
    if (frame.collected == 0) {
      frame.oldest_send = config_.epoch + start + fleet.phase(first);
    }
    frame.collected += collected;
  });

  if (frame.collected == 0) return frame;
  frame.bytes = kFrameHeaderBytes +
                (config_.spec.edge.reduce == Reduce::kRaw
                     ? frame.collected * kSampleBytes
                     : kAggRecordBytes);
  return frame;
}

void RegionalAggregator::deliver(EdgeFrame frame) {
  obs::mem_add(obs::MemCategory::kHier, kEdgeFrameBytes);
  pending_.push_back(std::move(frame));
}

void RegionalAggregator::flush() {
  if (pending_.empty()) return;
  std::vector<EdgeFrame> batch;
  batch.swap(pending_);
  obs::mem_sub(obs::MemCategory::kHier,
               static_cast<std::int64_t>(batch.size()) * kEdgeFrameBytes);

  if (config_.spec.regional.reduce == Reduce::kRaw) {
    // Pure broker tier: re-publish each edge frame as its own upstream
    // message, size unchanged.
    for (EdgeFrame& frame : batch) {
      UpstreamFrame up;
      up.regional = regional_;
      up.bytes = frame.bytes;
      up.collected = frame.collected;
      up.oldest_send = frame.oldest_send;
      up.segments.push_back(std::move(frame));
      publish_(std::move(up));
    }
    return;
  }

  // Reducing tier: fold everything pending into one frame carrying one
  // fixed-size record per covered edge frame.
  UpstreamFrame up;
  up.regional = regional_;
  up.bytes = kFrameHeaderBytes +
             static_cast<std::int64_t>(batch.size()) * kAggRecordBytes;
  for (const EdgeFrame& frame : batch) {
    up.collected += frame.collected;
    if (up.segments.empty() || frame.oldest_send < up.oldest_send) {
      up.oldest_send = frame.oldest_send;
    }
    up.segments.push_back(frame);
  }
  publish_(std::move(up));
}

}  // namespace gridmon::hier
