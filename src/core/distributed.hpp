// Theorem 7: fully distributed randomized broadcast in O(ln n) rounds.
//
// Every node knows only n, p and the global clock t, plus its own state
// (informed or not, and since which round). The schedule of transmit
// probabilities is fixed up front:
//
//   rounds 1 … D−1 : NON-SELECTIVE — every informed node transmits
//                    (D = ln n / ln d, the number of BFS layers);
//   round D        : n/d^D-SELECTIVE — informed nodes transmit with
//                    probability n/d^D (≈ n/d transmitters: the kick-off
//                    into the giant layers);
//   rounds D+1, …  : 1/d-SELECTIVE — nodes informed during rounds 1…D
//                    transmit with probability 1/d.
//
// The restriction of the selective tail to early-informed nodes is the
// paper's; `tail_includes_late_informed` switches to the natural variant
// where every informed node joins the lottery (E3 compares both).
//
// The paper's tail set is fixed once round D has been stepped (a node's
// informed round never changes), so the first tail call lists it once,
// ascending, and every tail round draws over that list — the same nodes in
// the same order as a scan of the informed set, so the same draws.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/protocol.hpp"

namespace radio {

struct DistributedOptions {
  /// Tail transmit probability is `selective_rate_scale / d`.
  double selective_rate_scale = 1.0;

  /// Paper: only nodes informed in rounds 1…D transmit in the tail. The
  /// variant lets everyone informed participate (more robust when the
  /// realized eccentricity exceeds D).
  bool tail_includes_late_informed = false;
};

class ElsasserGasieniecBroadcast final : public Protocol {
 public:
  explicit ElsasserGasieniecBroadcast(DistributedOptions options = {})
      : options_(options) {}

  std::string name() const override;
  bool is_distributed() const override { return true; }

  void reset(const ProtocolContext& ctx) override;

  void select_transmitters(std::uint32_t round, const SessionView& session,
                           Rng& rng, std::vector<NodeId>& out) override;

  /// The phase-switch round D computed from (n, p); exposed for tests.
  std::uint32_t phase_switch_round() const noexcept { return switch_round_; }

  /// Transmit probability the protocol uses in `round` (for an informed,
  /// eligible node). Exposed for tests of the probability schedule itself.
  double transmit_probability(std::uint32_t round) const noexcept;

 private:
  DistributedOptions options_;
  ProtocolContext ctx_{};
  std::uint32_t switch_round_ = 1;  ///< D
  double kickoff_probability_ = 1.0;
  double tail_probability_ = 1.0;
  /// Ascending nodes informed in rounds 0…D: the paper's tail transmitters,
  /// listed at the first tail call after reset() (the source is always
  /// one, so the list is never empty once built).
  std::vector<NodeId> tail_knowers_;
};

}  // namespace radio
