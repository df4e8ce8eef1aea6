// Guided adversarial search engine: fixed small-set schedules, the search's
// determinism and its certified schedule's lane-width independence,
// certificate semantics, and the guided-beats-blind contract at equal probe
// budgets. (Batched probes against per-instance probes: BatchDeterminism.)
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/workload.hpp"
#include "core/adversary.hpp"
#include "core/lower_bound.hpp"
#include "sim/batch/batch_runner.hpp"
#include "sim/runner.hpp"

namespace radio {
namespace {

Graph path_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return Graph::from_edges(n, edges);
}

TEST(FixedSmallSetSchedule, OnlyInformedMembersTransmit) {
  Rng rng(1);
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  auto schedule = std::make_shared<const SmallSetSchedule>(
      SmallSetSchedule{{{0, 3}, 2}});
  FixedSmallSetScheduleProtocol protocol(schedule);
  BroadcastSession session(g, 0);
  std::vector<NodeId> out;
  // Node 3 is scheduled but uninformed: only node 0 may transmit.
  protocol.select_transmitters(1, session, rng, out);
  EXPECT_EQ(out, (std::vector<NodeId>{0}));
}

TEST(FixedSmallSetSchedule, SilentPastTheSchedule) {
  Rng rng(2);
  const Graph g = Graph::from_edges(2, {{0, 1}});
  auto schedule = std::make_shared<const SmallSetSchedule>(
      SmallSetSchedule{{{0, 0}, 1}});
  FixedSmallSetScheduleProtocol protocol(schedule);
  BroadcastSession session(g, 0);
  std::vector<NodeId> out;
  protocol.select_transmitters(2, session, rng, out);  // beyond round 1
  EXPECT_TRUE(out.empty());
}

TEST(FixedSmallSetScheduleDeathTest, RejectsMalformedSets) {
  auto dup = std::make_shared<const SmallSetSchedule>(
      SmallSetSchedule{{{5, 5}, 2}});
  EXPECT_DEATH(FixedSmallSetScheduleProtocol{dup}, "precondition");
  EXPECT_DEATH(FixedSmallSetScheduleProtocol{nullptr}, "precondition");
}

TEST(GuidedSmallSetSearch, SolvesThePathGraphOptimally) {
  const NodeId n = 8;
  const Graph g = path_graph(n);
  GuidedSearchParams params;
  params.round_budget = 10;
  params.generations = 4;
  params.population = 4;
  Rng rng(7);
  const GuidedSearchOutcome outcome =
      guided_small_set_search(g, 0, params, rng);
  // Information moves one hop per round on a path: 7 rounds is optimal, and
  // the greedy seed already achieves it.
  EXPECT_EQ(outcome.best_rounds, 7u);
  EXPECT_TRUE(outcome.certificate.completed);
  // The witness is the far end of the path: last informed, at round 7.
  EXPECT_EQ(outcome.certificate.witness, n - 1);
  EXPECT_EQ(outcome.certificate.rounds_survived, 7u);
  EXPECT_FALSE(outcome.certificate.small_sets.empty());
  EXPECT_TRUE(outcome.certificate.oblivious_probs.empty());
}

TEST(GuidedSmallSetSearch, IncompleteCertificateNamesAnUninformedWitness) {
  const NodeId n = 8;
  const Graph g = path_graph(n);
  GuidedSearchParams params;
  params.round_budget = 3;  // < diameter: completion is impossible
  params.generations = 3;
  params.population = 4;
  Rng rng(11);
  const GuidedSearchOutcome outcome =
      guided_small_set_search(g, 0, params, rng);
  EXPECT_EQ(outcome.best_rounds, params.round_budget + 1);
  EXPECT_FALSE(outcome.certificate.completed);
  EXPECT_LT(outcome.certificate.witness, n);
  // The witness survived the FULL budget uninformed — that is the point.
  EXPECT_EQ(outcome.certificate.rounds_survived, params.round_budget);
  EXPECT_EQ(outcome.completed_fraction, 0.0);
}

class GuidedSearchFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(99);
    const NodeId n = 256;
    const double ln_n = std::log(static_cast<double>(n));
    instance_ = make_broadcast_instance(
        GnpParams::with_degree(n, ln_n * ln_n), rng);
    source_ = pick_source(instance_.graph, rng);
    params_.round_budget = static_cast<std::uint32_t>(10.0 * ln_n);
    params_.generations = 6;
    params_.population = 4;
    params_.trials_per_candidate = 2;
  }

  GuidedSearchOutcome run_oblivious() {
    Rng rng(1234);
    return guided_oblivious_search(instance_.graph, source_,
                                   context_for(instance_), params_, rng);
  }

  BroadcastInstance instance_;
  NodeId source_ = 0;
  GuidedSearchParams params_;
};

TEST_F(GuidedSearchFixture, ByteIdenticalAcrossLaneWidths) {
  // The search picks its own lane width (a generation's probes), so its
  // outcome is a function of the seed alone ...
  const GuidedSearchOutcome first = run_oblivious();
  const GuidedSearchOutcome again = run_oblivious();
  EXPECT_EQ(first.best_rounds, again.best_rounds);
  EXPECT_EQ(first.completed_fraction, again.completed_fraction);
  EXPECT_EQ(first.certificate.witness, again.certificate.witness);
  EXPECT_EQ(first.certificate.rounds_survived,
            again.certificate.rounds_survived);
  EXPECT_EQ(first.certificate.improvements, again.certificate.improvements);
  EXPECT_EQ(first.certificate.oblivious_probs,
            again.certificate.oblivious_probs);

  // ... and the schedule it certifies plays the same runs one lane wide
  // (per-instance) as packed 5 or 64 lanes wide.
  const std::vector<double> probs = first.certificate.oblivious_probs;
  ASSERT_FALSE(probs.empty());
  const ProtocolFactory factory = [probs](int) {
    return std::make_unique<ObliviousSequenceProtocol>(probs);
  };
  const int trials = 13;  // not a multiple of either packed width
  const std::uint64_t seed = 1234;
  const std::vector<BroadcastRun> lanes1 = run_broadcast_batch(
      instance_.graph, context_for(instance_), source_, trials, seed, 0,
      factory, params_.round_budget, 1);
  ASSERT_EQ(lanes1.size(), static_cast<std::size_t>(trials));
  EXPECT_EQ(plan_broadcast_batch(instance_.graph, trials, factory, 1).path,
            BatchDispatch::Path::kPerInstance);
  for (std::uint32_t lanes : {5u, 64u}) {
    EXPECT_EQ(
        plan_broadcast_batch(instance_.graph, trials, factory, lanes).path,
        BatchDispatch::Path::kBatched)
        << "lanes=" << lanes;
    const std::vector<BroadcastRun> packed = run_broadcast_batch(
        instance_.graph, context_for(instance_), source_, trials, seed, 0,
        factory, params_.round_budget, lanes);
    ASSERT_EQ(packed.size(), lanes1.size()) << "lanes=" << lanes;
    for (std::size_t t = 0; t < lanes1.size(); ++t) {
      EXPECT_EQ(packed[t].completed, lanes1[t].completed)
          << "lanes=" << lanes << " trial=" << t;
      EXPECT_EQ(packed[t].rounds, lanes1[t].rounds)
          << "lanes=" << lanes << " trial=" << t;
      EXPECT_EQ(packed[t].collisions, lanes1[t].collisions)
          << "lanes=" << lanes << " trial=" << t;
      EXPECT_EQ(packed[t].transmissions, lanes1[t].transmissions)
          << "lanes=" << lanes << " trial=" << t;
      EXPECT_EQ(packed[t].informed, lanes1[t].informed)
          << "lanes=" << lanes << " trial=" << t;
    }
  }
}

TEST_F(GuidedSearchFixture, CertificateAccountsForEveryProbe) {
  const GuidedSearchOutcome outcome = run_oblivious();
  // seeds (population) + generations × population, ×trials each.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(params_.population) *
      static_cast<std::uint64_t>(params_.trials_per_candidate) *
      static_cast<std::uint64_t>(params_.generations + 1);
  EXPECT_EQ(outcome.certificate.probes, expected);
  EXPECT_LE(outcome.certificate.improvements,
            static_cast<std::uint32_t>(params_.generations));
  EXPECT_LT(outcome.certificate.witness, instance_.graph.num_nodes());
  EXPECT_EQ(outcome.certificate.oblivious_probs.size(), params_.round_budget);
  EXPECT_TRUE(outcome.certificate.small_sets.empty());
  if (outcome.certificate.completed) {
    EXPECT_LE(outcome.certificate.rounds_survived,
              outcome.certificate.rounds);
  } else {
    EXPECT_EQ(outcome.certificate.rounds_survived, params_.round_budget);
  }
}

TEST_F(GuidedSearchFixture, MatchesOrBeatsBlindSamplingAtEqualProbeBudget) {
  const GuidedSearchOutcome guided = run_oblivious();
  // Blind best-of-K sampling with the SAME number of candidate evaluations
  // (the probes then match exactly: candidates × trials_per_candidate).
  ObliviousSearchParams blind;
  blind.round_budget = params_.round_budget;
  blind.num_candidates = params_.population * (params_.generations + 1);
  blind.trials_per_candidate = params_.trials_per_candidate;
  Rng rng(1234);
  const ObliviousSearchOutcome sampled = search_oblivious_schedules(
      instance_.graph, source_, context_for(instance_), blind, rng);
  EXPECT_LE(guided.best_rounds, sampled.best_rounds);
}

}  // namespace
}  // namespace radio
