#include "protocols/decay.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace radio {

void DecayProtocol::reset(const ProtocolContext& ctx) {
  RADIO_EXPECTS(ctx.n >= 2);
  phase_length_ = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(std::log2(static_cast<double>(ctx.n)))));
  nodes_ = ctx.n;
  active_.clear();
}

void DecayProtocol::select_transmitters(std::uint32_t round,
                                        const SessionView& session,
                                        Rng& rng, std::vector<NodeId>& out) {
  RADIO_EXPECTS(nodes_ == session.num_nodes());
  const bool phase_start = (round - 1) % phase_length_ == 0;
  if (phase_start) {
    // Informed nodes become active, in ascending id order.
    active_.clear();
    session.for_each_informed([&](NodeId v) { active_.push_back(v); });
  }
  // Every active node transmits, then survives into the next round of the
  // phase with probability 1/2; the branch-free in-place compaction keeps
  // ids ascending.
  out.insert(out.end(), active_.begin(), active_.end());
  std::size_t kept = 0;
  for (const NodeId v : active_) {
    active_[kept] = v;
    kept += static_cast<std::size_t>(rng.bernoulli(0.5));
  }
  active_.resize(kept);
}

}  // namespace radio
