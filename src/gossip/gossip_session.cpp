#include "gossip/gossip_session.hpp"

#include <bit>

#include "util/assert.hpp"

namespace radio {

GossipSession::GossipSession(const Graph& g)
    : graph_(&g),
      counts_(g.num_nodes(), 1),
      total_(g.num_nodes()),
      everyone_(g.num_nodes()),
      start_rounds_(g.num_nodes(), 0),
      resolver_(g.num_nodes()) {
  knowledge_.reserve(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    knowledge_.emplace_back(g.num_nodes());
    knowledge_.back().set(v);  // own rumor
    everyone_.set(v);
  }
}

double GossipSession::coverage() const noexcept {
  const auto n = static_cast<double>(graph_->num_nodes());
  if (n == 0.0) return 1.0;
  return static_cast<double>(total_) / (n * n);
}

const GossipRoundStats& GossipSession::step(
    std::span<const NodeId> transmitters) {
  GossipRoundStats stats;
  stats.round = static_cast<std::uint32_t>(history_.size() + 1);
  stats.transmitters = static_cast<std::uint32_t>(transmitters.size());

  // Senders are transmitters and transmitters never receive, so knowledge
  // merges within a round are order-independent.
  resolver_.fold(*graph_, transmitters);
  resolver_.for_each_listener_word([&](std::size_t wi, std::uint64_t collided,
                                       std::uint64_t unique) {
    stats.collisions += static_cast<std::uint32_t>(std::popcount(collided));
    for_each_set_bit(unique, wi * 64, [&](std::size_t bit) {
      const auto w = static_cast<NodeId>(bit);
      const std::size_t gained =
          knowledge_[w].set_union(knowledge_[resolver_.sender(*graph_, w)]);
      ++stats.receivers;
      counts_[w] += gained;
      total_ += gained;
      stats.rumors_moved += gained;
    });
  });

  stats.knowledge_total = total_;
  history_.push_back(stats);
  return history_.back();
}

GossipRun run_gossip(Protocol& protocol, const ProtocolContext& ctx,
                     GossipSession& session, Rng& rng,
                     std::uint32_t max_rounds) {
  RADIO_EXPECTS(max_rounds > 0);
  RADIO_EXPECTS(!protocol.wants_observations());  // the loop feeds none
  protocol.reset(ctx);
  GossipRun run;
  std::vector<NodeId> transmitters;
  for (std::uint32_t round = 1; round <= max_rounds; ++round) {
    if (session.complete()) break;
    transmitters.clear();
    protocol.select_transmitters(round, session, rng, transmitters);
    const GossipRoundStats& stats = session.step(transmitters);
    ++run.rounds;
    run.transmissions += stats.transmitters;
  }
  run.completed = session.complete();
  run.coverage = session.coverage();
  return run;
}

}  // namespace radio
