// Guided adversarial lower-bound search for E7 — Newport-style hitting
// games instead of blind sampling ("Radio Network Lower Bounds Made Easy"
// reduces radio lower bounds to games where an explicit adversary is
// *searched for*, not sampled).
//
// Blind best-of-K sampling (search_oblivious_schedules, core/lower_bound.hpp)
// estimates the oblivious optimum by a noisy order statistic. This engine
// replaces the estimate with a (1+λ) local search: keep one incumbent
// schedule, spawn λ mutants per generation, evaluate every mutant's trials
// as LANES of a single run_broadcast_batch call on the shared graph
// (population-as-lanes: one lane per probe, clamped by memory), and adopt a
// mutant only when its *worst* trial strictly improves on the incumbent's.
// Probe u always draws from Rng::for_stream(probe_seed, u), so the search
// trajectory — and every number derived from it — is byte-identical for any
// lane width and any thread count (the sim/batch determinism contract).
//
// Each search emits a per-instance CERTIFICATE: the best schedule found, the
// witness node that pinned its completion time (or stayed uninformed for the
// whole budget), how many rounds that witness survived, and the probe count
// spent — the constructive evidence behind the "no schedule we could find
// beats Ω(ln n)" claim, replayable against every protocol in src/protocols/
// (E7's stress rows).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "sim/batch/batch_engine.hpp"
#include "sim/protocol.hpp"
#include "util/rng.hpp"

namespace radio {

/// Certificate sentinel: no witness (e.g. a 1-node graph).
inline constexpr NodeId kNoWitness = static_cast<NodeId>(0xFFFFFFFFu);

// ---------------------------------------------------------------------------
// Small-set schedules as explicit genotypes (Theorem 6's canonical form).
// ---------------------------------------------------------------------------

/// One round's transmit set after the proof's reduction: 1 or 2 distinct
/// nodes, chosen up front by the (centralized) adversary.
struct SmallRoundSet {
  NodeId node[2] = {0, 0};
  std::uint8_t size = 1;
};

/// A fixed sequence of small transmit sets, one per round.
using SmallSetSchedule = std::vector<SmallRoundSet>;

/// Plays a FIXED small-set schedule: in round t the members of sets[t-1]
/// that currently hold the message transmit (uninformed members stay silent
/// — they have nothing to send); rounds past the schedule are silent.
/// Deterministic: consumes no randomness, so one probe per candidate
/// suffices. Centralized by construction (the schedule was built from the
/// topology).
class FixedSmallSetScheduleProtocol final : public Protocol {
 public:
  /// `schedule` is shared, not copied: the batch factory builds one protocol
  /// per lane probe and they all read the same immutable genotype.
  explicit FixedSmallSetScheduleProtocol(
      std::shared_ptr<const SmallSetSchedule> schedule);

  std::string name() const override { return "fixed-small-set"; }
  bool is_distributed() const override { return false; }
  void reset(const ProtocolContext&) override {}
  void select_transmitters(std::uint32_t round, const SessionView& session,
                           Rng& rng, std::vector<NodeId>& out) override;

 private:
  std::shared_ptr<const SmallSetSchedule> schedule_;
};

// ---------------------------------------------------------------------------
// The guided (1+λ) search.
// ---------------------------------------------------------------------------

struct GuidedSearchParams {
  std::uint32_t round_budget = 0;  ///< rounds each probe may use
  int generations = 24;            ///< local-search iterations after seeding
  int population = 8;              ///< λ mutants per generation (and seeds)
  /// Trials per oblivious candidate; fitness is the WORST trial, so a
  /// candidate must complete on every trial to count as completing. Ignored
  /// by the small-set search (fixed schedules are deterministic: 1 probe).
  int trials_per_candidate = 2;
  double mutation_rate = 0.25;   ///< per-round chance a gene mutates
  double mutation_scale = 1.5;   ///< log-probability step (oblivious genes)
  NodeId max_set_size = 2;       ///< small-set genes: 1- or 2-sets
};

/// The per-instance certificate a guided search leaves behind.
struct AdversaryCertificate {
  /// Worst-trial completion of the best schedule found; round_budget + 1
  /// when even the best never completed within budget.
  std::uint32_t rounds = 0;
  bool completed = false;  ///< did the best schedule complete every trial?
  /// The node that pinned the result: the LAST node informed on the deciding
  /// trial when completed, else the first node still uninformed at budget.
  NodeId witness = kNoWitness;
  /// Rounds the witness survived uninformed: its informed round when the
  /// probe completed, the full budget when it did not.
  std::uint32_t rounds_survived = 0;
  std::uint64_t probes = 0;        ///< broadcast probes spent by the search
  std::uint32_t improvements = 0;  ///< accepted mutations
  /// The best schedule itself — exactly one of these is non-empty.
  std::vector<double> oblivious_probs;
  SmallSetSchedule small_sets;
};

struct GuidedSearchOutcome {
  /// == certificate.rounds; kept separate so callers read it like the blind
  /// searches' best_rounds.
  std::uint32_t best_rounds = 0;
  /// Fraction of ALL evaluated candidates whose every trial completed.
  double completed_fraction = 0.0;
  AdversaryCertificate certificate;
  /// Batch-engine fold choices summed over every probe batch of the search.
  BatchFoldCounts folds;
};

/// Theorem 8 adversary: (1+λ) search over oblivious per-round probability
/// sequences. Seeds with the paper's own Theorem-7 schedule, the constant
/// 1/d sequence, and random log-uniform sequences; mutates in log-probability
/// space, clamped to [1/n, 1]. Minimizing the worst-trial completion tracks
/// the oblivious optimum from above far more tightly than best-of-K blind
/// sampling at the same probe budget.
GuidedSearchOutcome guided_oblivious_search(const Graph& g, NodeId source,
                                            const ProtocolContext& ctx,
                                            const GuidedSearchParams& params,
                                            Rng& rng);

/// Theorem 6 adversary: (1+λ) search over explicit small-set schedules.
/// Seeds with a greedy max-new-coverage singleton schedule plus random
/// schedules; mutation resamples individual rounds. One probe per candidate
/// (fixed schedules are deterministic).
GuidedSearchOutcome guided_small_set_search(const Graph& g, NodeId source,
                                            const GuidedSearchParams& params,
                                            Rng& rng);

}  // namespace radio
