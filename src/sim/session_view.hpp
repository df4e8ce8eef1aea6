// Read-only view of one broadcast's per-node knowledge state — the exact
// surface a Protocol may consult when selecting transmitters.
//
// Narrowing protocols to this view is what lets the batched simulation core
// (sim/batch) drive the SAME protocol implementations lane by lane without
// materializing a full session per lane. The view is a fat pointer (node
// count + informed set + informed-round array), cheap to construct per
// round; sessions convert implicitly so call sites hand them straight to
// Protocol::select_transmitters. It carries no topology: protocols read the
// graph only through num_nodes(), so they run unchanged on every backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/backend.hpp"
#include "util/bitset.hpp"

namespace radio {

class SessionView {
 public:
  template <GraphBackend G>
  SessionView(const G& g, const Bitset& informed,
              std::span<const std::uint32_t> informed_round,
              std::size_t informed_count) noexcept
      : num_nodes_(g.num_nodes()),
        informed_(&informed),
        informed_round_(informed_round),
        informed_count_(informed_count) {}

  NodeId num_nodes() const noexcept { return num_nodes_; }

  bool informed(NodeId v) const noexcept { return informed_->test(v); }

  /// Round in which v became informed; kUnreachable if still uninformed.
  /// The source is informed at round 0.
  std::uint32_t informed_round(NodeId v) const noexcept {
    return informed_round_[v];
  }

  std::size_t informed_count() const noexcept { return informed_count_; }

  /// Calls fn(v) for every informed node v in ascending id order. Costs
  /// O(n/64 + informed_count()); protocols draw their per-node randomness
  /// inside fn, so the order is part of every seeded result.
  template <class Fn>
  void for_each_informed(Fn&& fn) const {
    informed_->for_each_set([&](std::size_t v) { fn(static_cast<NodeId>(v)); });
  }

 private:
  NodeId num_nodes_;
  const Bitset* informed_;
  std::span<const std::uint32_t> informed_round_;
  std::size_t informed_count_;
};

}  // namespace radio
