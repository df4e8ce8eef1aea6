#include "core/lower_bound.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/distributed.hpp"
#include "graph/bfs.hpp"
#include "sim/batch/batch_runner.hpp"
#include "sim/runner.hpp"
#include "sim/session.hpp"
#include "util/assert.hpp"

namespace radio {

ObliviousSequenceProtocol::ObliviousSequenceProtocol(
    std::vector<double> probabilities)
    : probabilities_(std::move(probabilities)) {
  RADIO_EXPECTS(!probabilities_.empty());
  for (double q : probabilities_) RADIO_EXPECTS(q >= 0.0 && q <= 1.0);
}

void ObliviousSequenceProtocol::select_transmitters(
    std::uint32_t round, const SessionView& session, Rng& rng,
    std::vector<NodeId>& out) {
  const double q = round <= probabilities_.size()
                       ? probabilities_[round - 1]
                       : probabilities_.back();
  session.for_each_informed([&](NodeId v) {
    if (q >= 1.0 || rng.bernoulli(q)) out.push_back(v);
  });
}

std::vector<double> theorem7_oblivious_sequence(const ProtocolContext& ctx,
                                                std::uint32_t budget) {
  // The protocol's own schedule, read off round by round. Degrees below 2
  // are clamped to 2 so D = ln n / ln d stays finite on sparse inputs.
  ProtocolContext clamped = ctx;
  if (ctx.expected_degree() < 2.0)
    clamped.p = 2.0 / static_cast<double>(ctx.n);
  ElsasserGasieniecBroadcast theorem7;
  theorem7.reset(clamped);
  const std::uint32_t length =
      std::max(budget, theorem7.phase_switch_round() + 1);
  std::vector<double> probs;
  probs.reserve(length);
  for (std::uint32_t t = 1; t <= length; ++t)
    probs.push_back(theorem7.transmit_probability(t));
  return probs;
}

namespace {

std::vector<double> random_sequence(NodeId n, std::uint32_t budget, Rng& rng) {
  // Log-uniform per-round probability in [1/n, 1]: covers aggressive
  // flooding, sparse lotteries and everything between.
  std::vector<double> probs;
  probs.reserve(budget);
  const double lo = std::log(1.0 / static_cast<double>(n));
  for (std::uint32_t t = 0; t < budget; ++t)
    probs.push_back(std::exp(lo * rng.uniform()));
  return probs;
}

}  // namespace

ObliviousSearchOutcome search_oblivious_schedules(
    const Graph& g, NodeId source, const ProtocolContext& ctx,
    const ObliviousSearchParams& params, Rng& rng) {
  RADIO_EXPECTS(params.round_budget > 0);
  RADIO_EXPECTS(params.num_candidates >= 1);
  RADIO_EXPECTS(params.trials_per_candidate >= 1);

  std::vector<std::vector<double>> candidates;
  candidates.reserve(static_cast<std::size_t>(params.num_candidates));
  candidates.push_back(theorem7_oblivious_sequence(ctx, params.round_budget));
  if (params.num_candidates >= 2) {
    const double d = std::max(2.0, ctx.expected_degree());
    candidates.emplace_back(params.round_budget, std::min(1.0, 1.0 / d));
  }
  while (candidates.size() < static_cast<std::size_t>(params.num_candidates))
    candidates.push_back(random_sequence(ctx.n, params.round_budget, rng));

  // Every (candidate, trial) probe is an independent broadcast on the SAME
  // graph — exactly the shape the batched core amortizes, one lane per
  // probe. Probe u gets its own stream for_stream(probe_seed, u), so results
  // are byte-identical whatever lane width the memory clamp leaves.
  const std::uint64_t probe_seed = rng();
  const int tpc = params.trials_per_candidate;
  const int units = static_cast<int>(candidates.size()) * tpc;
  const ProtocolFactory factory = [&candidates, tpc](int unit) {
    return std::make_unique<ObliviousSequenceProtocol>(
        candidates[static_cast<std::size_t>(unit / tpc)]);
  };
  const std::vector<BroadcastRun> runs =
      run_broadcast_batch(g, ctx, source, units, probe_seed, 0, factory,
                          params.round_budget,
                          static_cast<std::uint32_t>(units));

  ObliviousSearchOutcome outcome;
  outcome.best_rounds = params.round_budget + 1;
  int completed = 0;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    std::uint32_t worst_trial = 0;
    bool all_completed = true;
    for (int trial = 0; trial < tpc; ++trial) {
      const BroadcastRun& run = runs[c * static_cast<std::size_t>(tpc) +
                                     static_cast<std::size_t>(trial)];
      if (!run.completed) {
        all_completed = false;
        break;
      }
      worst_trial = std::max(worst_trial, run.rounds);
    }
    if (all_completed) {
      ++completed;
      if (worst_trial < outcome.best_rounds) {
        outcome.best_rounds = worst_trial;
        outcome.best_candidate = static_cast<int>(c);
      }
    }
  }
  outcome.completed_fraction =
      static_cast<double>(completed) / static_cast<double>(candidates.size());
  return outcome;
}

std::uint32_t broadcast_diameter_bound(const Graph& g, NodeId source) {
  const LayerDecomposition layers = bfs_layers(g, source);
  return layers.eccentricity();
}

}  // namespace radio
