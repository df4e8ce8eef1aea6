#include "sim/round_resolver.hpp"

#include <algorithm>

namespace radio {

void RoundResolver::begin(std::span<const NodeId> transmitters) {
  once_.clear_all();
  twice_.clear_all();
  transmitting_.clear_all();
  for (NodeId t : transmitters) {
    RADIO_EXPECTS(t < transmitting_.size());
    const bool fresh = transmitting_.set_if_clear(t);
    RADIO_EXPECTS(fresh);  // duplicates are caller bugs
  }
}

void RoundResolver::accumulate_dense(const Graph& g,
                                     std::span<const NodeId> transmitters) {
  path_ = RoundPath::kDense;
  const std::span<const std::uint64_t> bitmap = g.adjacency_bitmap();
  const std::size_t wpr = g.bitmap_words_per_row();
  for (NodeId t : transmitters)
    accumulate_hits_words(once_.words().data(), twice_.words().data(),
                          bitmap.data() + static_cast<std::size_t>(t) * wpr,
                          wpr);
}

NodeId RoundResolver::sender_from_row(const Graph& g, NodeId w) const {
  const std::span<const std::uint64_t> row = g.adjacency_row(w);
  const std::span<const std::uint64_t> tx = transmitting_.words();
  for (std::size_t wi = 0; wi < row.size(); ++wi) {
    const std::uint64_t hit = row[wi] & tx[wi];
    if (hit != 0)
      return static_cast<NodeId>(wi * 64 +
                                 static_cast<std::size_t>(std::countr_zero(hit)));
  }
  RADIO_ENSURES(!"exactly-one-hit listener had no transmitting neighbor");
  return kInvalidNode;
}

void RoundResolver::observe(std::span<ChannelObservation> out) const {
  RADIO_EXPECTS(out.size() == once_.size());
  std::fill(out.begin(), out.end(), ChannelObservation::kSilence);
  auto mark = [&](std::uint64_t word, std::size_t wi, ChannelObservation what) {
    for_each_set_bit(word, wi * 64, [&](std::size_t v) { out[v] = what; });
  };
  const std::span<const std::uint64_t> tx = transmitting_.words();
  for_each_listener_word([&](std::size_t wi, std::uint64_t collided,
                             std::uint64_t unique) {
    mark(collided, wi, ChannelObservation::kCollision);
    mark(unique, wi, ChannelObservation::kMessage);
    mark(tx[wi], wi, ChannelObservation::kTransmitting);
  });
}

}  // namespace radio
