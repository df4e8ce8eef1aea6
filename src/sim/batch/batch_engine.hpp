// Instance-parallel radio channel: B broadcast instances ("lanes") on ONE
// shared graph, advanced together by word-parallel sweeps.
//
// Layout. State is lane-sliced SoA: for every node v the engine keeps a
// ⌈B/64⌉-word lane mask per plane (informed / transmitting / hit-once /
// hit-twice), stored contiguously per node, node-major. Bit l of node v's
// word says what lane l's instance knows about v. One pass over the shared
// adjacency therefore advances ALL lanes: folding transmitter u's neighbor w
// costs ⌈B/64⌉ word ops and serves every lane in which u transmits — the
// per-round work is Σ over the UNION of the lanes' transmitter sets (capped
// at 2m by the pull fold below), not the sum, which is where the batch
// speedup comes from (protocols with overlapping transmitter sets, e.g.
// flood-like phases, amortize best).
//
// Semantics per lane are EXACTLY RoundResolver's (sim/round_resolver.hpp):
// a listener receives iff precisely one neighbor transmits, ≥ 2 jam,
// transmitters never receive, and an uninformed unique transmitter still
// jams delivery of nothing. The differential suite
// (tests/sim/test_batch_engine.cpp, tests/property/test_batch_equivalence.cpp)
// pins round-by-round equality against BroadcastSession for every lane.
//
// Two folds. A round first folds the transmitters into per-listener hit
// words (the saturating counter twice |= once & tx; once |= tx), then
// classifies every hit listener with one shared body (classify()):
//   * push — each transmitter of the lanes' UNION scatters its tx word into
//     its neighbors' once/twice planes; touched lists bound classification
//     and the reset to the listeners actually hit. Costs Σ deg(union)
//     read-modify-writes.
//   * pull — each node w ORs its neighbors' tx words into register
//     once/twice words and is classified in place: no scatter, no touched
//     list, no reset. Costs one read per adjacency entry (2m), sequential
//     over the CSR.
// step() picks per round with batch_pull_fold_pays (sim/channel_kernel.hpp):
// pull once Σ deg(union) reaches m/4, an eighth of the graph's 2m edge
// ends, which at 64 lanes is most rounds of a flood-like protocol. Wider
// lane masks (stride > 1) always push. Both folds compute the same hit
// words and the classification is order-free (per-lane tallies and set
// bits), so the choice never changes results; fold_counts() records it.
//
// In-round mutation safety: informed bits are set the moment a delivery is
// classified. This cannot race with the unique-sender resolution of another
// listener because a transmitter can never receive in its own lane — the
// informed bits read during resolution are masked to lanes where the scanned
// node transmits, and those bits are frozen for the round.
//
// The engine knows nothing about protocols, RNG streams or trial queues;
// BatchScheduler (batch_scheduler.hpp) owns that. No wall clock, no
// iostream: this file is part of the simulation kernel (radio-lint enforces
// both).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sim/session_view.hpp"
#include "util/bitset.hpp"

namespace radio {

/// Lanes per engine are bounded so lane masks stay a handful of words; the
/// scheduler's memory gate (batch_lanes_for) clamps far earlier in practice,
/// and requested widths above it are clamped to it.
inline constexpr std::uint32_t kMaxBatchLanes = 4096;

/// Which fold each step() ran, tallied over an engine's lifetime. A
/// deterministic counter: it depends on the graph, the lane width and the
/// transmitter sets only, never on timing or thread count.
struct BatchFoldCounts {
  std::uint64_t push = 0;  ///< steps folded transmitter by transmitter
  std::uint64_t pull = 0;  ///< steps folded listener by listener

  BatchFoldCounts& operator+=(const BatchFoldCounts& o) noexcept {
    push += o.push;
    pull += o.pull;
    return *this;
  }
};

class BatchEngine {
 public:
  /// What one lane experienced in the round just stepped.
  struct LaneOutcome {
    std::uint32_t transmitters = 0;    ///< nodes that transmitted in the lane
    std::uint32_t newly_informed = 0;  ///< uninformed listeners that received
    std::uint32_t collisions = 0;      ///< listeners with >= 2 tx neighbors
    std::uint32_t redundant = 0;       ///< informed listeners that heard again
  };

  /// `lanes` in [1, kMaxBatchLanes]; the graph must outlive the engine.
  BatchEngine(const Graph& g, std::uint32_t lanes);

  const Graph& graph() const noexcept { return *graph_; }
  std::uint32_t lane_count() const noexcept { return lane_count_; }

  /// Words per lane-mask slice (⌈lane_count/64⌉) — shrinks on compact().
  std::size_t lane_words() const noexcept { return stride_; }

  /// (Re)initializes a lane: informed = {source} at round 0. Clears any
  /// previous instance state the lane held.
  void open_lane(std::uint32_t lane, NodeId source);

  /// Rounds stepped since the lane was opened.
  std::uint32_t round(std::uint32_t lane) const noexcept {
    return round_[lane];
  }

  bool informed(std::uint32_t lane, NodeId v) const noexcept {
    return informed_mirror_[lane].test(v);
  }
  std::size_t informed_count(std::uint32_t lane) const noexcept {
    return informed_count_[lane];
  }
  bool complete(std::uint32_t lane) const noexcept {
    return informed_count_[lane] == graph_->num_nodes();
  }

  /// The protocol-facing knowledge surface of one lane (valid until the next
  /// step()/open_lane()/compact() on that lane).
  SessionView view(std::uint32_t lane) const noexcept {
    return SessionView(*graph_, informed_mirror_[lane], informed_round_[lane],
                       informed_count_[lane]);
  }

  /// Registers v as a transmitter of `lane` for the upcoming step().
  /// Duplicate (lane, v) pairs are caller bugs, as in RoundResolver.
  void add_transmitter(std::uint32_t lane, NodeId v);

  /// Bulk form of add_transmitter: registers every node of `vs` for `lane`.
  /// One lane-mask/mirror setup amortized over the whole set — the scheduler
  /// feeds each lane's per-round transmitter list through this.
  void add_transmitters(std::uint32_t lane, std::span<const NodeId> vs);

  /// Executes one synchronous round for every lane in `active` (ascending
  /// lane ids, each open): increments their round counters, applies
  /// deliveries, and fills outcome(). Lanes outside `active` must not have
  /// registered transmitters.
  void step(std::span<const std::uint32_t> active);

  /// Valid for lanes passed to the most recent step().
  const LaneOutcome& outcome(std::uint32_t lane) const noexcept {
    return outcome_[lane];
  }

  /// Push and pull steps since construction (compact() keeps them).
  const BatchFoldCounts& fold_counts() const noexcept { return folds_; }

  /// Retires lane slots: lane i of the compacted engine is old lane
  /// `old_lane_of_new[i]` (strictly increasing). Shrinking the lane count
  /// shrinks lane_words(), and with it the per-word cost of every subsequent
  /// sweep — the scheduler calls this when occupancy drops. Must not be
  /// called with transmitters pending.
  void compact(std::span<const std::uint32_t> old_lane_of_new);

 private:
  std::uint64_t* plane(std::vector<std::uint64_t>& p, NodeId v) noexcept {
    return p.data() + static_cast<std::size_t>(v) * stride_;
  }
  const std::uint64_t* plane(const std::vector<std::uint64_t>& p,
                             NodeId v) const noexcept {
    return p.data() + static_cast<std::size_t>(v) * stride_;
  }

  /// The channel rule for listener w's lane word k, given its hit words:
  /// tallies collisions, resolves unique senders and delivers. Shared by
  /// both folds.
  void classify(NodeId w, std::size_t k, std::uint64_t once,
                std::uint64_t twice);

  const Graph* graph_;
  std::uint32_t lane_count_;
  std::size_t stride_;  ///< words per lane slice

  // Lane-sliced planes, node-major: node v's slice is words [v·stride,
  // (v+1)·stride). once_/twice_/tx_ are all-zero between rounds (reset via
  // touched lists, never O(n·stride)); the pull fold never writes
  // once_/twice_.
  std::vector<std::uint64_t> informed_p_;
  std::vector<std::uint64_t> once_;
  std::vector<std::uint64_t> twice_;
  std::vector<std::uint64_t> tx_;

  // Per-lane untransposed mirrors backing SessionView: protocols read
  // informed(v)/informed_round(v) per lane, which the transposed planes
  // cannot serve without bit gathers.
  std::vector<Bitset> informed_mirror_;
  std::vector<std::vector<std::uint32_t>> informed_round_;
  std::vector<std::size_t> informed_count_;
  std::vector<std::uint32_t> round_;
  std::vector<LaneOutcome> outcome_;

  // Round scratch.
  std::vector<NodeId> tx_nodes_;        ///< union of this round's transmitters
  std::vector<std::uint8_t> tx_flag_;   ///< node in tx_nodes_?
  EdgeCount tx_degree_sum_ = 0;         ///< Σ deg over tx_nodes_
  std::vector<std::uint32_t> tx_count_; ///< per lane
  /// Bit l set while every transmitter registered by lane l is informed —
  /// then a unique sender in lane l delivers without resolving WHO sent.
  std::vector<std::uint64_t> all_tx_informed_;
  std::vector<NodeId> touched_;         ///< listeners hit this round (push)
  std::vector<std::uint8_t> touched_flag_;
  BatchFoldCounts folds_;
};

}  // namespace radio
