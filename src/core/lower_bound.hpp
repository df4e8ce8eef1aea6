// Empirical counterparts of the paper's lower bounds: the building blocks
// the guided adversaries of core/adversary.hpp search with.
//
// Theorem 8 (distributed, Ω(ln n)) observes that a topology-oblivious node
// can condition only on (n, p, t), i.e. the algorithm is a per-round
// transmit-probability sequence q_1, q_2, …. ObliviousSequenceProtocol plays
// such a sequence; search_oblivious_schedules is the blind best-of-K
// baseline over random sequences — including the paper's own Theorem-7
// schedule as a candidate — that the guided search is measured against.
//
// Theorem 6 (centralized) reduces to explicit small-set schedules; its
// adversary is guided_small_set_search in core/adversary.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/protocol.hpp"
#include "util/rng.hpp"

namespace radio {

// ---------------------------------------------------------------------------
// Theorem 8: oblivious probability-sequence adversary.
// ---------------------------------------------------------------------------

/// A topology-oblivious algorithm: in round t every informed node transmits
/// with probability `probabilities[t-1]` (last entry repeats forever).
class ObliviousSequenceProtocol final : public Protocol {
 public:
  explicit ObliviousSequenceProtocol(std::vector<double> probabilities);

  std::string name() const override { return "oblivious-sequence"; }
  bool is_distributed() const override { return true; }
  void reset(const ProtocolContext&) override {}
  void select_transmitters(std::uint32_t round, const SessionView& session,
                           Rng& rng, std::vector<NodeId>& out) override;

 private:
  std::vector<double> probabilities_;
};

struct ObliviousSearchParams {
  std::uint32_t round_budget = 0;  ///< rounds each candidate may use
  int num_candidates = 64;         ///< random sequences sampled
  int trials_per_candidate = 3;    ///< completion must hold on every trial
};

struct ObliviousSearchOutcome {
  /// Fastest guaranteed completion found (max over that candidate's trials),
  /// or round_budget + 1 when no candidate completed within budget.
  std::uint32_t best_rounds = 0;
  /// Fraction of candidates whose every trial completed within budget.
  double completed_fraction = 0.0;
  /// Candidate index achieving best_rounds (-1 if none).
  int best_candidate = -1;
};

/// The Theorem-7 probability schedule as an explicit oblivious sequence
/// (flood for log n/log d rounds, one catch-up round, then 1/d forever), so
/// search spaces provably contain the paper's own algorithm. Entries are
/// ElsasserGasieniecBroadcast::transmit_probability on `ctx` with d clamped
/// to at least 2. Length is at least `budget` rounds.
std::vector<double> theorem7_oblivious_sequence(const ProtocolContext& ctx,
                                                std::uint32_t budget);

/// Samples random per-round probability sequences (log-uniform in [1/n, 1]),
/// always including (a) the Theorem-7 schedule and (b) the constant-1/d
/// sequence, and measures the best completion time on `g`.
ObliviousSearchOutcome search_oblivious_schedules(
    const Graph& g, NodeId source, const ProtocolContext& ctx,
    const ObliviousSearchParams& params, Rng& rng);

/// Diameter is an unconditional lower bound on any broadcast; exposed here
/// so experiment tables print it next to adversary outcomes.
std::uint32_t broadcast_diameter_bound(const Graph& g, NodeId source);

}  // namespace radio
