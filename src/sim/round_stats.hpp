// Per-round instrumentation emitted by the simulator.
#pragma once

#include <cstdint>

namespace radio {

struct RoundStats {
  std::uint32_t round = 0;             ///< 1-based round index
  std::uint32_t transmitters = 0;      ///< nodes that transmitted
  std::uint32_t newly_informed = 0;    ///< listeners that received the message
  std::uint32_t collisions = 0;        ///< listeners with >= 2 transmitting neighbors
  std::uint32_t wasted = 0;            ///< already-informed listeners that received again
  std::uint64_t informed_total = 0;    ///< informed nodes after the round
  bool dense_kernel = false;           ///< round ran on the word-parallel path

  bool operator==(const RoundStats&) const = default;
};

}  // namespace radio
