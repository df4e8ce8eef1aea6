// Lower-bound machinery: oblivious sequence protocol, the blind oblivious
// search, and the diameter bound, checked on small instances.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/workload.hpp"
#include "core/lower_bound.hpp"
#include "sim/runner.hpp"

namespace radio {
namespace {

TEST(ObliviousSequence, ProbabilityOneIsFlooding) {
  Rng rng(1);
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  ObliviousSequenceProtocol protocol({1.0});
  BroadcastSession session(g, 0);
  std::vector<NodeId> out;
  protocol.select_transmitters(1, session, rng, out);
  EXPECT_EQ(out, (std::vector<NodeId>{0}));
}

TEST(ObliviousSequence, ProbabilityZeroIsSilence) {
  Rng rng(2);
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  ObliviousSequenceProtocol protocol({0.0});
  BroadcastSession session(g, 0);
  std::vector<NodeId> out;
  for (int round = 1; round <= 5; ++round) {
    out.clear();
    protocol.select_transmitters(static_cast<std::uint32_t>(round), session,
                                 rng, out);
    EXPECT_TRUE(out.empty());
  }
}

TEST(ObliviousSequence, LastProbabilityRepeats) {
  Rng rng(3);
  const Graph g = Graph::from_edges(2, {{0, 1}});
  ObliviousSequenceProtocol protocol({0.0, 1.0});
  BroadcastSession session(g, 0);
  std::vector<NodeId> out;
  protocol.select_transmitters(10, session, rng, out);  // beyond sequence
  EXPECT_EQ(out, (std::vector<NodeId>{0}));
}

TEST(ObliviousSequence, OnlyInformedTransmit) {
  Rng rng(4);
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  ObliviousSequenceProtocol protocol({1.0});
  BroadcastSession session(g, 2);
  std::vector<NodeId> out;
  protocol.select_transmitters(1, session, rng, out);
  EXPECT_EQ(out, (std::vector<NodeId>{2}));
}

TEST(ObliviousSequenceDeathTest, RejectsEmptyOrInvalid) {
  EXPECT_DEATH(ObliviousSequenceProtocol({}), "precondition");
  EXPECT_DEATH(ObliviousSequenceProtocol({0.5, 1.5}), "precondition");
}

TEST(ObliviousSearch, FindsCompletionWithGenerousBudget) {
  Rng rng(5);
  const NodeId n = 512;
  const double ln_n = std::log(static_cast<double>(n));
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
  ObliviousSearchParams params;
  params.round_budget = static_cast<std::uint32_t>(15.0 * ln_n);
  params.num_candidates = 8;
  params.trials_per_candidate = 1;
  const ObliviousSearchOutcome outcome = search_oblivious_schedules(
      instance.graph, 0, context_for(instance), params, rng);
  // The Theorem-7 sequence is candidate 0 and should complete.
  EXPECT_GT(outcome.completed_fraction, 0.0);
  EXPECT_LE(outcome.best_rounds, params.round_budget);
  EXPECT_GE(outcome.best_candidate, 0);
}

TEST(ObliviousSearch, BestRoundsRespectsLogLowerBoundScale) {
  Rng rng(6);
  const NodeId n = 1024;
  const double ln_n = std::log(static_cast<double>(n));
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
  ObliviousSearchParams params;
  params.round_budget = static_cast<std::uint32_t>(20.0 * ln_n);
  params.num_candidates = 16;
  params.trials_per_candidate = 1;
  const ObliviousSearchOutcome outcome = search_oblivious_schedules(
      instance.graph, 0, context_for(instance), params, rng);
  // Theorem 8: no oblivious schedule beats Omega(ln n). Even the best found
  // needs a healthy fraction of ln n (diameter alone is ~2-3 here, so this
  // tests the collision bottleneck, not distance).
  EXPECT_GE(static_cast<double>(outcome.best_rounds), 0.9 * ln_n);
}

TEST(ObliviousSearch, NoCandidateCompletesWithinTinyBudget) {
  Rng rng(7);
  const NodeId n = 1024;
  const double ln_n = std::log(static_cast<double>(n));
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
  ObliviousSearchParams params;
  params.round_budget = 3;  // << ln n = 6.9
  params.num_candidates = 24;
  params.trials_per_candidate = 1;
  const ObliviousSearchOutcome outcome = search_oblivious_schedules(
      instance.graph, 0, context_for(instance), params, rng);
  EXPECT_EQ(outcome.completed_fraction, 0.0);
  EXPECT_EQ(outcome.best_rounds, params.round_budget + 1);
  EXPECT_EQ(outcome.best_candidate, -1);
}

TEST(DiameterBound, MatchesEccentricity) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(broadcast_diameter_bound(g, 0), 3u);
  EXPECT_EQ(broadcast_diameter_bound(g, 1), 2u);
}

}  // namespace
}  // namespace radio
