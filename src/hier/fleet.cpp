#include "hier/fleet.hpp"

#include <limits>

namespace gridmon::hier {

FleetState::FleetState(const TopologySpec& spec, std::uint64_t seed)
    : sample_period_(spec.sample_period),
      generators_(spec.generators),
      fan_in_(spec.edge.fan_in),
      phase_salt_(seed ^ 0x6A09E667F3BCC909ULL),
      loss_salt_(seed ^ 0xA24BAED4963EE407ULL) {
  // expand() validates loss < 1, but this constructor can see an
  // unvalidated spec, and casting a double >= 2^64 is UB — clamp.
  const double p = spec.edge_loss;
  const double scaled = p * 0x1.0p64;
  loss_threshold_ = p <= 0.0 ? 0
                    : scaled >= 0x1.0p64
                        ? std::numeric_limits<std::uint64_t>::max()
                        : static_cast<std::uint64_t>(scaled);
}

std::int64_t FleetState::first_phased_at(std::int64_t first,
                                         SimTime at) const {
  // phase(j) >= at  <=>  j * period + offset_j >= at * n, and offset_j lies
  // in [0, period): every j below q = floor(at * n / period) falls short,
  // every j above q clears it, and j = q clears it iff its offset reaches
  // the remainder. at * n <= period * fan_in, which expand() keeps in
  // range.
  const std::int64_t n = edge_size(first);
  const std::int64_t scaled = at * n;
  const std::int64_t q = scaled / sample_period_;
  if (q >= n) return n;
  return offset(first + q) < scaled - q * sample_period_ ? q + 1 : q;
}

}  // namespace gridmon::hier
