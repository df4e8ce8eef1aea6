#include "sim/channel_kernel.hpp"

namespace radio {

EdgeCount sum_transmitter_degrees(
    const Graph& g, std::span<const NodeId> transmitters) noexcept {
  EdgeCount sum = 0;
  for (NodeId t : transmitters) sum += g.degree(t);
  return sum;
}

}  // namespace radio
