// Empirical counterparts of the paper's lower bounds.
//
// Theorem 6 (centralized, Ω(ln n / ln d + ln d)) argues that any fixed
// sequence of c·ln n transmit sets leaves an uninformed node w.h.p.; the
// counting step reduces arbitrary sets to sets of size 1 or 2 (for p = 1/2)
// or size ≤ n/d + 1 (general p). Exhausting all set sequences is
// exponential, so the experiment samples K schedules per family and reports
// the best (an upper bound on the adversary's power: if even the best
// sampled schedule fails within budget, the true lower bound can only be
// stronger).
//
// Theorem 8 (distributed, Ω(ln n)) observes that a topology-oblivious node
// can condition only on (n, p, t), i.e. the algorithm is a per-round
// transmit-probability sequence q_1, q_2, …. The experiment searches over
// random probability sequences — including the paper's own Theorem-7
// schedule as a candidate — and reports the fastest completion found.
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
  /// Lane width for the batched simulation core (sim/batch): every
  /// (candidate, trial) probe runs on the SAME graph, so probes advance
  /// `batch_lanes` at a time per kernel sweep. 1 = per-instance engine.
  /// Results are byte-identical for any value (see batch_scheduler.hpp).
  std::uint32_t batch_lanes = 1;
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

// ---------------------------------------------------------------------------
// Theorem 6: small-set schedule adversary (centralized knowledge).
// ---------------------------------------------------------------------------

struct SmallSetAdversaryParams {
  std::uint32_t round_budget = 0;  ///< c·ln n rounds available
  int num_schedules = 256;         ///< random schedules sampled
  NodeId max_set_size = 2;         ///< the proof's reduction: 1- or 2-sets
  /// Lane width for the batched simulation core (see ObliviousSearchParams).
  std::uint32_t batch_lanes = 1;
};

struct SmallSetAdversaryOutcome {
  double completed_fraction = 0.0;   ///< schedules finishing within budget
  std::uint32_t best_rounds = 0;     ///< fastest completion (budget+1 if none)
  double mean_uninformed_left = 0.0; ///< avg uninformed after the budget
};

/// One random small-set schedule as a Protocol: round t transmits a
/// uniformly random subset of the currently informed nodes of size
/// 1…max_set_size (Theorem 6's canonical form after its reduction steps).
/// Centralized by construction — it reads the global informed set.
class SmallSetScheduleProtocol final : public Protocol {
 public:
  explicit SmallSetScheduleProtocol(NodeId max_set_size);

  std::string name() const override { return "small-set-adversary"; }
  bool is_distributed() const override { return false; }
  void reset(const ProtocolContext&) override {}
  void select_transmitters(std::uint32_t round, const SessionView& session,
                           Rng& rng, std::vector<NodeId>& out) override;

 private:
  NodeId max_set_size_;
  std::vector<NodeId> pool_;
};

/// Random schedules drawn via SmallSetScheduleProtocol, one RNG stream per
/// schedule so the probes batch across lanes (params.batch_lanes).
SmallSetAdversaryOutcome probe_small_set_schedules(
    const Graph& g, NodeId source, const SmallSetAdversaryParams& params,
    Rng& rng);

/// Diameter is an unconditional lower bound on any broadcast; exposed here
/// so experiment tables print it next to adversary outcomes.
std::uint32_t broadcast_diameter_bound(const Graph& g, NodeId source);

}  // namespace radio
