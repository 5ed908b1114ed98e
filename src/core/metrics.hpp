// Measurement bookkeeping for one experiment run.
//
// Implements the paper's metric definitions (§III.C):
//  - RTT: mean of per-message round-trip times (send → receive);
//  - RTT variation: standard deviation of those times;
//  - loss rate: (sent - received) / sent;
//  - percentile of RTT: quantiles of the per-message distribution;
//  - decomposition RTT = PRT + PT + SRT (publishing response time,
//    middleware process time, subscribing response time).
#pragma once

#include <cstdint>

#include "util/stats.hpp"
#include "util/units.hpp"

namespace gridmon::core {

class Metrics {
 public:
  /// Record a completed message: all four phase timestamps. Pass
  /// after_sending == before_sending when the PRT endpoint is unknown.
  void record(SimTime before_sending, SimTime after_sending,
              SimTime before_receiving, SimTime after_receiving);

  void count_sent(std::uint64_t n = 1) { sent_ += n; }
  void count_refused_connection(std::uint64_t n = 1) {
    refused_connections_ += n;
  }

  /// Bulk accounting for aggregated deliveries (hierarchical tier): one
  /// frame covering N samples calls record() once for the oldest sample —
  /// keeping the RTT distribution honest about worst-case staleness — and
  /// counts the other N-1 here so loss/deadline rates stay per-sample.
  void count_received(std::uint64_t n) { bulk_received_ += n; }
  void count_delivered_late(std::uint64_t n) { delivered_late_ += n; }

  /// Deadline for the delivered-late count (0 disables, the default). Grid
  /// monitoring's soft real-time bound is 5 s end-to-end.
  void set_deadline(SimTime deadline) { deadline_ = deadline; }
  [[nodiscard]] SimTime deadline() const { return deadline_; }

  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t received() const {
    return rtt_ms_.count() + bulk_received_;
  }
  [[nodiscard]] std::uint64_t delivered_late() const { return delivered_late_; }
  [[nodiscard]] std::uint64_t refused_connections() const {
    return refused_connections_;
  }
  [[nodiscard]] double loss_rate() const;

  [[nodiscard]] const util::SampleSet& rtt_ms() const { return rtt_ms_; }
  [[nodiscard]] double rtt_mean_ms() const { return rtt_ms_.mean(); }
  [[nodiscard]] double rtt_stddev_ms() const { return rtt_ms_.stddev(); }
  /// Percentile in the paper's axis convention (95..100).
  [[nodiscard]] double rtt_percentile_ms(double pct) const {
    return rtt_ms_.quantile(pct / 100.0);
  }

  [[nodiscard]] const util::OnlineStats& prt_ms() const { return prt_ms_; }
  [[nodiscard]] const util::OnlineStats& pt_ms() const { return pt_ms_; }
  [[nodiscard]] const util::OnlineStats& srt_ms() const { return srt_ms_; }
  /// Messages recorded with the after_sending == before_sending sentinel
  /// (PRT endpoint unknown); excluded from the PRT stats above.
  [[nodiscard]] std::uint64_t prt_unknown() const { return prt_unknown_; }

 private:
  std::uint64_t sent_ = 0;
  std::uint64_t bulk_received_ = 0;
  std::uint64_t refused_connections_ = 0;
  SimTime deadline_ = 0;
  std::uint64_t delivered_late_ = 0;
  util::SampleSet rtt_ms_;
  std::uint64_t prt_unknown_ = 0;
  util::OnlineStats prt_ms_;
  util::OnlineStats pt_ms_;
  util::OnlineStats srt_ms_;
};

}  // namespace gridmon::core
