// The radio channel itself: one synchronous round of the model in §1.1,
// written once for every unbatched caller (BroadcastSession, GossipSession,
// the centralized builder's look-ahead).
//
// Semantics (exactly the paper's): every node either transmits or listens.
// A listening node w RECEIVES iff precisely one of its neighbors transmits;
// if two or more transmit, a collision destroys the round for w; a
// transmitting node never receives. A received transmission delivers the
// broadcast message only if the transmitter actually holds it — uninformed
// transmitters still jam the channel (needed verbatim by Theorem 6's relaxed
// adversary, which lets arbitrary sets transmit).
//
// A round is resolved in two steps:
//
//   1. FOLD the transmitter set into two bit arrays with the saturating
//      2-bit counter update  twice |= once & N(t);  once |= N(t).
//      Two exact folds compute the same words:
//        * sparse — per-transmitter neighbor sweep, O(Σ deg(t)), on any
//          GraphBackend;
//        * dense — word-parallel OR of adjacency-bitmap rows (Graph only),
//          (|T| + O(1))·⌈n/64⌉ word operations; optimal in the dense
//          regime (§3.1 / E8), where Σ deg(t) approaches |T|·n.
//      fold() picks per round with the cost model dense_round_pays
//      (sim/channel_kernel.hpp) and records which fold ran; tests pin a
//      fold by calling fold_sparse() / fold_dense() directly.
//   2. CLASSIFY listeners word by word (for_each_listener_word, the one
//      place once/twice hits become "collided" / "heard exactly one"):
//        collided = twice & ~transmitting,
//        unique   = once & ~twice & ~transmitting.
//      deliver() applies the broadcast rule on top. When every transmitter
//      is informed it is  once & ~twice & ~informed  with no sender lookup;
//      otherwise each unique listener's sender is recovered on demand
//      (sender()) and only informed senders deliver.
//
// DETERMINISM CONTRACT: both folds produce bit-identical words, and every
// consumer walks the classification in ascending node id order, so the fold
// choice — like thread count — can never change simulation results (pinned
// by tests/property/test_engine_reference.cpp against a quadratic oracle).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>

#include "graph/backend.hpp"
#include "graph/graph.hpp"
#include "sim/channel_kernel.hpp"
#include "util/assert.hpp"
#include "util/bitset.hpp"

namespace radio {

/// What a node experienced on the channel in one round. The paper's model
/// gives listeners no collision detection — a collision is indistinguishable
/// from silence — so kCollision is only distinguishable from kSilence when a
/// session records observations (the collision-detection MODEL EXTENSION
/// used by AdaptiveBackoffProtocol; see protocols/adaptive_backoff.hpp).
enum class ChannelObservation : std::uint8_t {
  kSilence = 0,      ///< listened, no transmitting neighbor
  kMessage = 1,      ///< listened, exactly one transmitting neighbor
  kCollision = 2,    ///< listened, two or more transmitting neighbors
  kTransmitting = 3, ///< was transmitting (hears nothing by definition)
};

class RoundResolver {
 public:
  /// Scratch for an n-node graph, reused across rounds: a round costs
  /// O(n/64) words of clearing and classification plus the fold, with no
  /// per-round allocation.
  explicit RoundResolver(NodeId n) : once_(n), twice_(n), transmitting_(n) {}

  /// Folds `transmitters` (distinct node ids), choosing the cheaper fold.
  template <GraphBackend G>
  void fold(const G& g, std::span<const NodeId> transmitters) {
    begin(transmitters);
    if constexpr (std::is_same_v<G, Graph>) {
      if (dense_round_pays(g.num_nodes(), transmitters.size(),
                           sum_transmitter_degrees(g, transmitters))) {
        accumulate_dense(g, transmitters);
        return;
      }
    }
    accumulate_sparse(g, transmitters);
  }

  /// The two folds, pinned (the oracle suite runs both on every input).
  template <GraphBackend G>
  void fold_sparse(const G& g, std::span<const NodeId> transmitters) {
    begin(transmitters);
    accumulate_sparse(g, transmitters);
  }

  void fold_dense(const Graph& g, std::span<const NodeId> transmitters) {
    begin(transmitters);
    accumulate_dense(g, transmitters);
  }

  /// Which fold the most recent round ran.
  RoundPath path() const noexcept { return path_; }

  /// The classification: calls fn(word_index, collided, unique) for every
  /// word of the node range, ascending. Bit b of word i is node 64·i + b;
  /// transmitters appear in neither mask.
  template <class Fn>
  void for_each_listener_word(Fn&& fn) const {
    const std::span<const std::uint64_t> once = once_.words();
    const std::span<const std::uint64_t> twice = twice_.words();
    const std::span<const std::uint64_t> tx = transmitting_.words();
    for (std::size_t wi = 0; wi < once.size(); ++wi) {
      const std::uint64_t listening = ~tx[wi];
      fn(wi, twice[wi] & listening, once[wi] & ~twice[wi] & listening);
    }
  }

  /// The single transmitting neighbor of a listener that heard exactly one
  /// (a `unique` bit of the last round). Looked up on demand: a scan of w's
  /// bitmap row after the dense fold, of its neighbor list otherwise.
  template <GraphBackend G>
  NodeId sender(const G& g, NodeId w) const {
    if constexpr (std::is_same_v<G, Graph>) {
      if (path_ == RoundPath::kDense) return sender_from_row(g, w);
    }
    for (NodeId v : g.neighbors(w))
      if (transmitting_.test(v)) return v;
    RADIO_ENSURES(!"exactly-one-hit listener had no transmitting neighbor");
    return kInvalidNode;
  }

  struct Outcome {
    std::uint32_t collisions = 0;  ///< listeners jammed by >= 2 transmitters
    std::uint32_t redundant = 0;   ///< informed listeners that heard it again
  };

  /// The broadcast rule over the last fold, against the pre-round informed
  /// set: calls on_delivery(w) for every uninformed listener that hears
  /// exactly one INFORMED transmitter, in ascending id order. on_delivery
  /// may mark w in `informed`; the rule reads each word before delivering.
  template <GraphBackend G, class OnDelivery>
  Outcome deliver(const G& g, const Bitset& informed,
                  OnDelivery&& on_delivery) const {
    RADIO_EXPECTS(informed.size() == once_.size());
    const std::span<const std::uint64_t> known = informed.words();
    std::uint64_t jammers = 0;  // transmitters that do not hold the message
    for (std::size_t wi = 0; wi < known.size(); ++wi)
      jammers |= transmitting_.words()[wi] & ~known[wi];

    Outcome outcome;
    for_each_listener_word([&](std::size_t wi, std::uint64_t collided,
                               std::uint64_t unique) {
      outcome.collisions += static_cast<std::uint32_t>(std::popcount(collided));
      if (jammers != 0) {
        for_each_set_bit(unique, wi * 64, [&](std::size_t w) {
          if (!informed.test(sender(g, static_cast<NodeId>(w))))
            unique &= ~(std::uint64_t{1} << (w % 64));
        });
      }
      const std::uint64_t fresh = unique & ~known[wi];
      outcome.redundant +=
          static_cast<std::uint32_t>(std::popcount(unique & known[wi]));
      for_each_set_bit(fresh, wi * 64, [&](std::size_t w) {
        on_delivery(static_cast<NodeId>(w));
      });
    });
    return outcome;
  }

  /// Per-node observations of the last round (one entry per node).
  void observe(std::span<ChannelObservation> out) const;

 private:
  void begin(std::span<const NodeId> transmitters);

  template <GraphBackend G>
  void accumulate_sparse(const G& g, std::span<const NodeId> transmitters) {
    path_ = RoundPath::kSparse;
    std::uint64_t* once = once_.words().data();
    std::uint64_t* twice = twice_.words().data();
    for (NodeId t : transmitters) {
      for (NodeId w : g.neighbors(t)) {
        const std::uint64_t bit = std::uint64_t{1} << (w % 64);
        twice[w / 64] |= once[w / 64] & bit;
        once[w / 64] |= bit;
      }
    }
  }

  void accumulate_dense(const Graph& g, std::span<const NodeId> transmitters);
  NodeId sender_from_row(const Graph& g, NodeId w) const;

  Bitset once_;
  Bitset twice_;
  Bitset transmitting_;
  RoundPath path_ = RoundPath::kSparse;
};

}  // namespace radio
