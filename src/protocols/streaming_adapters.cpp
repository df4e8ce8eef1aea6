#include "protocols/streaming_adapters.hpp"

#include <string>

#include "protocols/decay.hpp"
#include "protocols/flooding.hpp"

namespace radio {

std::unique_ptr<StreamingProtocol> make_pipelined_decay(std::uint32_t depth) {
  return std::make_unique<StreamingProtocol>(
      "stream-decay[BGI]/d" + std::to_string(depth), depth,
      [] { return std::make_unique<DecayProtocol>(); });
}

std::unique_ptr<StreamingProtocol> make_pipelined_flooding(
    std::uint32_t depth) {
  return std::make_unique<StreamingProtocol>(
      "stream-flooding/d" + std::to_string(depth), depth,
      [] { return std::make_unique<FloodingProtocol>(); });
}

}  // namespace radio
