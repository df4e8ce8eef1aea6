#include "sim/batch/batch_engine.hpp"

#include "sim/channel_kernel.hpp"
#include "util/assert.hpp"

namespace radio {

BatchEngine::BatchEngine(const Graph& g, std::uint32_t lanes)
    : graph_(&g),
      lane_count_(lanes),
      stride_(words_for_bits(lanes)),
      tx_flag_(g.num_nodes(), 0),
      touched_flag_(g.num_nodes(), 0) {
  RADIO_EXPECTS(lanes >= 1 && lanes <= kMaxBatchLanes);
  const auto n = static_cast<std::size_t>(g.num_nodes());
  informed_p_.assign(n * stride_, 0);
  once_.assign(n * stride_, 0);
  twice_.assign(n * stride_, 0);
  tx_.assign(n * stride_, 0);
  informed_mirror_.resize(lanes);
  for (auto& m : informed_mirror_) m = Bitset(g.num_nodes());
  informed_round_.assign(lanes, std::vector<std::uint32_t>(n, kUnreachable));
  informed_count_.assign(lanes, 0);
  round_.assign(lanes, 0);
  outcome_.assign(lanes, LaneOutcome{});
  tx_count_.assign(lanes, 0);
  all_tx_informed_.assign(stride_, ~std::uint64_t{0});
}

void BatchEngine::open_lane(std::uint32_t lane, NodeId source) {
  RADIO_EXPECTS(lane < lane_count_);
  RADIO_EXPECTS(source < graph_->num_nodes());
  RADIO_EXPECTS(tx_count_[lane] == 0);  // no transmitters pending
  const std::uint64_t mask = std::uint64_t{1} << (lane & 63);
  const std::size_t word = lane >> 6;
  // Clear the lane's previous informed bits via its mirror (touches only the
  // nodes that were informed, not all n·stride words).
  Bitset& mirror = informed_mirror_[lane];
  std::vector<std::uint32_t>& rounds = informed_round_[lane];
  if (informed_count_[lane] > 0) {
    mirror.for_each_set([&](std::size_t v) {
      informed_p_[v * stride_ + word] &= ~mask;
      rounds[v] = kUnreachable;
    });
    mirror.clear_all();
  }
  informed_p_[static_cast<std::size_t>(source) * stride_ + word] |= mask;
  mirror.set(source);
  rounds[source] = 0;
  informed_count_[lane] = 1;
  round_[lane] = 0;
  outcome_[lane] = LaneOutcome{};
}

void BatchEngine::add_transmitter(std::uint32_t lane, NodeId v) {
  add_transmitters(lane, std::span<const NodeId>(&v, 1));
}

void BatchEngine::add_transmitters(std::uint32_t lane,
                                   std::span<const NodeId> vs) {
  RADIO_EXPECTS(lane < lane_count_);
  const std::uint64_t mask = std::uint64_t{1} << (lane & 63);
  const std::size_t word = lane >> 6;
  const std::size_t stride = stride_;
  const Bitset& mirror = informed_mirror_[lane];
  std::uint64_t all_informed = all_tx_informed_[word];
  for (const NodeId v : vs) {
    RADIO_EXPECTS(v < graph_->num_nodes());
    std::uint64_t& txw = tx_[static_cast<std::size_t>(v) * stride + word];
    RADIO_EXPECTS((txw & mask) == 0);  // duplicates are caller bugs
    txw |= mask;
    if (!tx_flag_[v]) {
      tx_flag_[v] = 1;
      tx_nodes_.push_back(v);
      tx_degree_sum_ += graph_->degree(v);
    }
    // An uninformed transmitter jams but can deliver nothing: drop the lane
    // from the fast "every sender is informed" classification mask.
    if (!mirror.test(v)) all_informed &= ~mask;
  }
  all_tx_informed_[word] = all_informed;
  tx_count_[lane] += static_cast<std::uint32_t>(vs.size());
}

inline void BatchEngine::classify(NodeId w, std::size_t k, std::uint64_t once,
                                  std::uint64_t twice) {
  // Transmitters never receive.
  const std::uint64_t listeners = ~plane(tx_, w)[k];
  const std::uint64_t colliding = twice & listeners;
  if (colliding != 0)
    for_each_set_bit(colliding, k * 64, [&](std::size_t lane) {
      ++outcome_[lane].collisions;
    });
  const std::uint64_t unique = once & ~twice & listeners;
  if (unique == 0) return;
  // Lanes whose transmitters are all informed deliver without resolving the
  // sender; the rest need the sender's informed bit.
  std::uint64_t message = unique & all_tx_informed_[k];
  std::uint64_t resolve = unique & ~all_tx_informed_[k];
  if (resolve != 0) {
    for (NodeId u : graph_->neighbors(w)) {
      const std::uint64_t hit = resolve & plane(tx_, u)[k];
      if (hit == 0) continue;
      // u is THE transmitting neighbor in the lanes of `hit`; informed bits
      // of a transmitter cannot change mid-step, so this reads the
      // pre-round value.
      message |= hit & plane(informed_p_, u)[k];
      resolve &= ~hit;
      if (resolve == 0) break;
    }
  }
  if (message == 0) return;
  std::uint64_t& infw = plane(informed_p_, w)[k];
  const std::uint64_t redundant = message & infw;
  if (redundant != 0)
    for_each_set_bit(redundant, k * 64, [&](std::size_t lane) {
      ++outcome_[lane].redundant;
    });
  const std::uint64_t fresh = message & ~infw;
  if (fresh != 0) {
    infw |= fresh;
    for_each_set_bit(fresh, k * 64, [&](std::size_t lane) {
      informed_mirror_[lane].set(w);
      informed_round_[lane][w] = round_[lane];
      ++informed_count_[lane];
      ++outcome_[lane].newly_informed;
    });
  }
}

void BatchEngine::step(std::span<const std::uint32_t> active) {
  for (std::uint32_t lane : active) {
    RADIO_EXPECTS(lane < lane_count_);
    outcome_[lane] = LaneOutcome{tx_count_[lane], 0, 0, 0};
    ++round_[lane];
  }

  if (stride_ == 1 &&
      batch_pull_fold_pays(graph_->num_edges(), tx_degree_sum_)) {
    // Pull: every node gathers its neighbors' tx words into registers and
    // is classified on the spot; once_/twice_ and the touched list stay
    // untouched.
    ++folds_.pull;
    const NodeId n = graph_->num_nodes();
    for (NodeId w = 0; w < n; ++w) {
      std::uint64_t once = 0;
      std::uint64_t twice = 0;
      for (NodeId u : graph_->neighbors(w)) {
        const std::uint64_t txu = tx_[u];
        twice |= once & txu;
        once |= txu;
      }
      if (once != 0) classify(w, 0, once, twice);
    }
  } else {
    // Push: fold every transmitter's neighborhood into the hit planes; one
    // pass over the union serves all lanes at once. stride 1 gets a
    // branch-free single-word inner loop; the generic loop handles wider
    // lane masks.
    ++folds_.push;
    if (stride_ == 1) {
      for (NodeId u : tx_nodes_) {
        const std::uint64_t txu = tx_[u];
        for (NodeId w : graph_->neighbors(u)) {
          if (!touched_flag_[w]) {
            touched_flag_[w] = 1;
            touched_.push_back(w);
          }
          const std::uint64_t o = once_[w];
          twice_[w] |= o & txu;
          once_[w] = o | txu;
        }
      }
    } else {
      for (NodeId u : tx_nodes_) {
        const std::uint64_t* txu = plane(tx_, u);
        for (NodeId w : graph_->neighbors(u)) {
          if (!touched_flag_[w]) {
            touched_flag_[w] = 1;
            touched_.push_back(w);
          }
          std::uint64_t* oncew = plane(once_, w);
          std::uint64_t* twicew = plane(twice_, w);
          for (std::size_t k = 0; k < stride_; ++k) {
            twicew[k] |= oncew[k] & txu[k];
            oncew[k] |= txu[k];
          }
        }
      }
    }
    // Classify every hit listener lane-word by lane-word, then reset the
    // hit planes via the touched list (never O(n·stride)).
    for (NodeId w : touched_) {
      std::uint64_t* oncew = plane(once_, w);
      std::uint64_t* twicew = plane(twice_, w);
      for (std::size_t k = 0; k < stride_; ++k) {
        classify(w, k, oncew[k], twicew[k]);
        oncew[k] = 0;
        twicew[k] = 0;
      }
      touched_flag_[w] = 0;
    }
    touched_.clear();
  }

  for (NodeId u : tx_nodes_) {
    std::uint64_t* txu = plane(tx_, u);
    for (std::size_t k = 0; k < stride_; ++k) txu[k] = 0;
    tx_flag_[u] = 0;
  }
  tx_nodes_.clear();
  tx_degree_sum_ = 0;
  for (std::uint32_t lane : active) tx_count_[lane] = 0;
  for (std::size_t k = 0; k < stride_; ++k)
    all_tx_informed_[k] = ~std::uint64_t{0};
}

void BatchEngine::compact(std::span<const std::uint32_t> old_lane_of_new) {
  RADIO_EXPECTS(tx_nodes_.empty() && touched_.empty());
  const auto new_count = static_cast<std::uint32_t>(old_lane_of_new.size());
  RADIO_EXPECTS(new_count >= 1 && new_count <= lane_count_);
  const std::size_t new_stride = words_for_bits(new_count);
  const auto n = static_cast<std::size_t>(graph_->num_nodes());

  // Regather the informed plane under the new lane numbering. The old plane
  // is read through each surviving lane's mirror, so cost is Σ informed, not
  // n·lanes.
  std::vector<std::uint64_t> informed_new(n * new_stride, 0);
  std::vector<Bitset> mirror_new(new_count);
  std::vector<std::vector<std::uint32_t>> rounds_new(new_count);
  std::vector<std::size_t> count_new(new_count);
  std::vector<std::uint32_t> round_new(new_count);
  std::vector<LaneOutcome> outcome_new(new_count);
  for (std::uint32_t i = 0; i < new_count; ++i) {
    const std::uint32_t old = old_lane_of_new[i];
    RADIO_EXPECTS(old < lane_count_);
    RADIO_EXPECTS(i == 0 || old > old_lane_of_new[i - 1]);
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    const std::size_t word = i >> 6;
    informed_mirror_[old].for_each_set([&](std::size_t v) {
      informed_new[v * new_stride + word] |= mask;
    });
    mirror_new[i] = std::move(informed_mirror_[old]);
    rounds_new[i] = std::move(informed_round_[old]);
    count_new[i] = informed_count_[old];
    round_new[i] = round_[old];
    outcome_new[i] = outcome_[old];
  }

  lane_count_ = new_count;
  stride_ = new_stride;
  informed_p_ = std::move(informed_new);
  once_.assign(n * stride_, 0);
  twice_.assign(n * stride_, 0);
  tx_.assign(n * stride_, 0);
  informed_mirror_ = std::move(mirror_new);
  informed_round_ = std::move(rounds_new);
  informed_count_ = std::move(count_new);
  round_ = std::move(round_new);
  outcome_ = std::move(outcome_new);
  tx_count_.assign(new_count, 0);
  all_tx_informed_.assign(stride_, ~std::uint64_t{0});
}

}  // namespace radio
