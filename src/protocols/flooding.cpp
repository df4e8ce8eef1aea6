#include "protocols/flooding.hpp"

namespace radio {

void FloodingProtocol::select_transmitters(std::uint32_t,
                                           const SessionView& session,
                                           Rng&, std::vector<NodeId>& out) {
  session.for_each_informed([&](NodeId v) { out.push_back(v); });
}

}  // namespace radio
