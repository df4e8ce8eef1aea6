#include "core/adversary.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/lower_bound.hpp"
#include "sim/batch/batch_runner.hpp"
#include "sim/runner.hpp"
#include "sim/session.hpp"
#include "util/assert.hpp"

namespace radio {

FixedSmallSetScheduleProtocol::FixedSmallSetScheduleProtocol(
    std::shared_ptr<const SmallSetSchedule> schedule)
    : schedule_(std::move(schedule)) {
  RADIO_EXPECTS(schedule_ != nullptr);
  for (const SmallRoundSet& set : *schedule_) {
    RADIO_EXPECTS(set.size >= 1 && set.size <= 2);
    if (set.size == 2) RADIO_EXPECTS(set.node[0] != set.node[1]);
  }
}

void FixedSmallSetScheduleProtocol::select_transmitters(
    std::uint32_t round, const SessionView& session, Rng&,
    std::vector<NodeId>& out) {
  if (round == 0 || round > schedule_->size()) return;
  const SmallRoundSet& set = (*schedule_)[round - 1];
  for (std::uint8_t i = 0; i < set.size; ++i) {
    const NodeId v = set.node[i];
    if (v < session.num_nodes() && session.informed(v))
      out.push_back(v);
  }
}

namespace {

/// Lexicographic candidate fitness, lower is better. `worst_rounds` is the
/// worst trial's completion time with round_budget + 1 standing in for
/// "never completed", and `uninformed` (total nodes left uninformed across
/// the candidate's trials) breaks ties so the search has a gradient even
/// while nothing completes yet.
struct Fitness {
  std::uint32_t worst_rounds = 0;
  std::uint64_t uninformed = 0;
};

bool better(const Fitness& a, const Fitness& b) {
  if (a.worst_rounds != b.worst_rounds) return a.worst_rounds < b.worst_rounds;
  return a.uninformed < b.uninformed;
}

struct Evaluated {
  Fitness fitness;
  std::uint64_t first_stream = 0;  ///< probe stream of this candidate's trial 0
  std::vector<BroadcastRun> runs;
  bool completed = false;  ///< every trial completed within budget
};

/// The (1+λ) loop, generic over the genotype. Policy supplies:
///   using Genotype = ...;
///   int trials_per_candidate() const;
///   std::vector<Genotype> seeds(Rng&) const;          // first generation
///   Genotype mutate(const Genotype&, Rng&) const;
///   std::unique_ptr<Protocol> make_protocol(const Genotype&) const;
///   void record(AdversaryCertificate&, const Genotype&) const;
///
/// Determinism: `rng` is consumed ONLY on the main thread (probe seed,
/// seeding, mutation). Probe u of the whole search draws from
/// Rng::for_stream(probe_seed, u) via run_broadcast_batch, so the entire
/// trajectory is byte-identical for any lane width / thread count. Each
/// generation runs one lane per probe (run_broadcast_batch's memory clamp
/// still applies).
template <typename Policy>
GuidedSearchOutcome guided_search(const Graph& g, NodeId source,
                                  const ProtocolContext& ctx,
                                  const GuidedSearchParams& params,
                                  const Policy& policy, Rng& rng) {
  RADIO_EXPECTS(params.round_budget > 0);
  RADIO_EXPECTS(params.generations >= 0);
  RADIO_EXPECTS(params.population >= 1);
  RADIO_EXPECTS(source < g.num_nodes());

  using Genotype = typename Policy::Genotype;
  const int tpc = policy.trials_per_candidate();
  const std::uint32_t fail_rounds = params.round_budget + 1;
  const std::uint64_t n = g.num_nodes();

  const std::uint64_t probe_seed = rng();
  std::uint64_t next_stream = 0;
  std::uint64_t candidates_seen = 0;
  std::uint64_t candidates_completed = 0;
  BatchFoldCounts folds;

  const auto evaluate = [&](const std::vector<Genotype>& candidates) {
    const int units = static_cast<int>(candidates.size()) * tpc;
    const std::uint64_t first = next_stream;
    next_stream += static_cast<std::uint64_t>(units);
    const ProtocolFactory factory = [&](int unit) {
      return policy.make_protocol(
          candidates[static_cast<std::size_t>(unit / tpc)]);
    };
    const std::vector<BroadcastRun> runs = run_broadcast_batch(
        g, ctx, source, units, probe_seed, first, factory, params.round_budget,
        static_cast<std::uint32_t>(units), &folds);
    std::vector<Evaluated> evals(candidates.size());
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      Evaluated& e = evals[c];
      e.first_stream = first + c * static_cast<std::uint64_t>(tpc);
      e.runs.assign(
          runs.begin() + static_cast<std::ptrdiff_t>(c) * tpc,
          runs.begin() + static_cast<std::ptrdiff_t>(c + 1) * tpc);
      e.completed = true;
      for (const BroadcastRun& run : e.runs) {
        if (!run.completed) {
          e.completed = false;
          e.fitness.worst_rounds = fail_rounds;
        } else if (e.fitness.worst_rounds != fail_rounds) {
          e.fitness.worst_rounds = std::max(e.fitness.worst_rounds, run.rounds);
        }
        e.fitness.uninformed += n - static_cast<std::uint64_t>(run.informed);
      }
      ++candidates_seen;
      if (e.completed) ++candidates_completed;
    }
    return evals;
  };

  const auto best_of = [](const std::vector<Evaluated>& evals) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < evals.size(); ++i)
      if (better(evals[i].fitness, evals[best].fitness)) best = i;
    return best;
  };

  // Generation 0: the policy's seed candidates compete for incumbency.
  std::vector<Genotype> pool = policy.seeds(rng);
  RADIO_EXPECTS(!pool.empty());
  std::vector<Evaluated> evals = evaluate(pool);
  std::size_t best = best_of(evals);
  Genotype incumbent = std::move(pool[best]);
  Evaluated incumbent_eval = std::move(evals[best]);
  std::uint32_t improvements = 0;

  // (1+λ): adopt a mutant only on STRICT improvement of the worst trial
  // (falling back to the uninformed-count tiebreak), so the incumbent can
  // never drift to an equally-good-looking but luckier schedule.
  for (int gen = 0; gen < params.generations; ++gen) {
    pool.clear();
    for (int m = 0; m < params.population; ++m)
      pool.push_back(policy.mutate(incumbent, rng));
    evals = evaluate(pool);
    best = best_of(evals);
    if (better(evals[best].fitness, incumbent_eval.fitness)) {
      incumbent = std::move(pool[best]);
      incumbent_eval = std::move(evals[best]);
      ++improvements;
    }
  }

  // ---- Certificate: replay the incumbent's DECIDING trial solo and read the
  // witness off the session. The deciding trial is the first incomplete one,
  // else the first trial attaining the worst completion time. Solo replay
  // with the identical stream reproduces the batched run exactly (batch ≡
  // per-instance is the sim/batch determinism contract).
  int deciding = 0;
  std::uint32_t worst = 0;
  for (int j = 0; j < tpc; ++j) {
    if (!incumbent_eval.runs[static_cast<std::size_t>(j)].completed) {
      deciding = j;
      break;
    }
    const std::uint32_t r =
        incumbent_eval.runs[static_cast<std::size_t>(j)].rounds;
    if (r > worst) {
      worst = r;
      deciding = j;
    }
  }
  const BroadcastRun& deciding_run =
      incumbent_eval.runs[static_cast<std::size_t>(deciding)];

  BroadcastSession session(g, source);
  Rng replay_rng = Rng::for_stream(
      probe_seed,
      incumbent_eval.first_stream + static_cast<std::uint64_t>(deciding));
  const std::unique_ptr<Protocol> protocol = policy.make_protocol(incumbent);
  const BroadcastRun replay = run_protocol(*protocol, ctx, session, replay_rng,
                                           params.round_budget);
  RADIO_EXPECTS(replay.completed == deciding_run.completed);
  RADIO_EXPECTS(replay.rounds == deciding_run.rounds);

  AdversaryCertificate cert;
  cert.rounds = incumbent_eval.fitness.worst_rounds;
  cert.completed = incumbent_eval.completed;
  cert.probes = next_stream;
  cert.improvements = improvements;
  if (session.complete()) {
    // Last node informed == the witness that pinned the completion time.
    cert.witness = source;
    cert.rounds_survived = 0;
    SessionView(session).for_each_informed([&](NodeId v) {
      const std::uint32_t round = session.informed_round(v);
      if (round > cert.rounds_survived) {
        cert.rounds_survived = round;
        cert.witness = v;
      }
    });
  } else {
    const std::vector<NodeId> uninformed = session.uninformed_nodes();
    RADIO_EXPECTS(!uninformed.empty());
    cert.witness = uninformed.front();
    cert.rounds_survived = params.round_budget;
  }
  policy.record(cert, incumbent);

  GuidedSearchOutcome outcome;
  outcome.best_rounds = cert.rounds;
  outcome.completed_fraction = static_cast<double>(candidates_completed) /
                               static_cast<double>(candidates_seen);
  outcome.certificate = std::move(cert);
  outcome.folds = folds;
  return outcome;
}

// ---------------------------------------------------------------------------
// Theorem 8 policy: oblivious probability sequences, mutated in log space.
// ---------------------------------------------------------------------------

class ObliviousPolicy {
 public:
  using Genotype = std::vector<double>;

  ObliviousPolicy(const ProtocolContext& ctx, const GuidedSearchParams& params)
      : ctx_(ctx),
        params_(params),
        log_lo_(std::log(1.0 / std::max(2.0, static_cast<double>(ctx.n)))) {}

  int trials_per_candidate() const {
    return std::max(1, params_.trials_per_candidate);
  }

  std::vector<Genotype> seeds(Rng& rng) const {
    std::vector<Genotype> seeds;
    // The paper's own Theorem-7 schedule: the search space provably contains
    // the upper-bound algorithm, so "best found" can only improve on it.
    seeds.push_back(theorem7_oblivious_sequence(ctx_, params_.round_budget));
    seeds.back().resize(params_.round_budget, seeds.back().back());
    if (seeds.size() < static_cast<std::size_t>(params_.population)) {
      const double d = std::max(2.0, ctx_.expected_degree());
      seeds.emplace_back(params_.round_budget, std::min(1.0, 1.0 / d));
    }
    while (seeds.size() < static_cast<std::size_t>(params_.population)) {
      Genotype probs(params_.round_budget);
      for (double& p : probs) p = random_gene(rng);
      seeds.push_back(std::move(probs));
    }
    return seeds;
  }

  Genotype mutate(const Genotype& parent, Rng& rng) const {
    Genotype child = parent;
    for (double& p : child) {
      if (!rng.bernoulli(params_.mutation_rate)) continue;
      if (rng.bernoulli(0.2)) {
        p = random_gene(rng);  // fresh log-uniform draw: escapes local optima
      } else {
        const double step = params_.mutation_scale * (2.0 * rng.uniform() - 1.0);
        p = std::exp(std::min(0.0, std::max(log_lo_, std::log(p) + step)));
      }
    }
    return child;
  }

  std::unique_ptr<Protocol> make_protocol(const Genotype& genes) const {
    return std::make_unique<ObliviousSequenceProtocol>(genes);
  }

  void record(AdversaryCertificate& cert, const Genotype& genes) const {
    cert.oblivious_probs = genes;
  }

 private:
  double random_gene(Rng& rng) const { return std::exp(log_lo_ * rng.uniform()); }

  const ProtocolContext& ctx_;
  const GuidedSearchParams& params_;
  double log_lo_;  ///< log(1/n): genes live in [1/n, 1]
};

// ---------------------------------------------------------------------------
// Theorem 6 policy: explicit small-set schedules, mutated round by round.
// ---------------------------------------------------------------------------

class SmallSetPolicy {
 public:
  using Genotype = std::shared_ptr<const SmallSetSchedule>;

  SmallSetPolicy(const Graph& g, NodeId source,
                 const GuidedSearchParams& params)
      : g_(g), source_(source), params_(params) {}

  // Fixed schedules consume no randomness: one probe decides a candidate.
  int trials_per_candidate() const { return 1; }

  std::vector<Genotype> seeds(Rng& rng) const {
    std::vector<Genotype> seeds;
    seeds.push_back(
        std::make_shared<const SmallSetSchedule>(greedy_schedule()));
    while (seeds.size() < static_cast<std::size_t>(params_.population)) {
      SmallSetSchedule schedule(params_.round_budget);
      for (SmallRoundSet& set : schedule) set = random_set(rng);
      seeds.push_back(
          std::make_shared<const SmallSetSchedule>(std::move(schedule)));
    }
    return seeds;
  }

  Genotype mutate(const Genotype& parent, Rng& rng) const {
    SmallSetSchedule child = *parent;
    for (SmallRoundSet& set : child)
      if (rng.bernoulli(params_.mutation_rate)) set = random_set(rng);
    return std::make_shared<const SmallSetSchedule>(std::move(child));
  }

  std::unique_ptr<Protocol> make_protocol(const Genotype& schedule) const {
    return std::make_unique<FixedSmallSetScheduleProtocol>(schedule);
  }

  void record(AdversaryCertificate& cert, const Genotype& schedule) const {
    cert.small_sets = *schedule;
  }

 private:
  /// Deterministic greedy seed: each round the informed node covering the
  /// most uninformed neighbors transmits alone (ties to the lowest id).
  /// Near-optimal on G(n,p) — the search then tries to beat it with 2-sets.
  SmallSetSchedule greedy_schedule() const {
    SmallSetSchedule schedule;
    schedule.reserve(params_.round_budget);
    BroadcastSession session(g_, source_);
    NodeId tx[1];
    for (std::uint32_t t = 0;
         t < params_.round_budget && !session.complete(); ++t) {
      NodeId best = source_;
      std::size_t best_gain = 0;
      SessionView(session).for_each_informed([&](NodeId v) {
        std::size_t gain = 0;
        for (NodeId u : g_.neighbors(v)) gain += session.informed(u) ? 0 : 1;
        if (gain > best_gain) {
          best_gain = gain;
          best = v;
        }
      });
      SmallRoundSet set;
      set.node[0] = best;
      schedule.push_back(set);
      tx[0] = best;
      session.step(tx);
    }
    // Pad to the full budget with silent-after-completion singletons so
    // every genotype has round_budget mutable rounds.
    SmallRoundSet pad;
    pad.node[0] = source_;
    schedule.resize(params_.round_budget, pad);
    return schedule;
  }

  SmallRoundSet random_set(Rng& rng) const {
    const NodeId n = g_.num_nodes();
    SmallRoundSet set;
    set.size = (params_.max_set_size >= 2 && n >= 2 && rng.bernoulli(0.5))
                   ? 2
                   : 1;
    set.node[0] = static_cast<NodeId>(rng.uniform_below(n));
    if (set.size == 2) {
      do {
        set.node[1] = static_cast<NodeId>(rng.uniform_below(n));
      } while (set.node[1] == set.node[0]);
    }
    return set;
  }

  const Graph& g_;
  NodeId source_;
  const GuidedSearchParams& params_;
};

}  // namespace

GuidedSearchOutcome guided_oblivious_search(const Graph& g, NodeId source,
                                            const ProtocolContext& ctx,
                                            const GuidedSearchParams& params,
                                            Rng& rng) {
  const ObliviousPolicy policy(ctx, params);
  return guided_search(g, source, ctx, params, policy, rng);
}

GuidedSearchOutcome guided_small_set_search(const Graph& g, NodeId source,
                                            const GuidedSearchParams& params,
                                            Rng& rng) {
  const ProtocolContext ctx{g.num_nodes(), 0.5};  // p unused by fixed schedules
  const SmallSetPolicy policy(g, source, params);
  return guided_search(g, source, ctx, params, policy, rng);
}

}  // namespace radio
