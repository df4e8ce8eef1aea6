// Property test: the round resolver is equivalent to an obviously correct
// quadratic reference implementation of §1.1 — on BOTH folds (sparse
// neighbor sweep and word-parallel bitmap) and on the one fold() picks —
// across random graphs, random informed sets (uninformed transmitters only
// jam) and random transmitter sets, down to the observation buffers. This is
// the determinism contract of sim/round_resolver.hpp: the fold choice can
// never change simulation results. The hand-built edge cases of the model
// are inputs to the same oracle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/random_graph.hpp"
#include "sim/round_resolver.hpp"
#include "sim/session.hpp"

namespace radio {
namespace {

struct Resolved {
  std::vector<NodeId> delivered;  ///< ascending
  std::uint32_t collisions = 0;
  std::uint32_t redundant = 0;
  std::vector<ChannelObservation> observations;

  bool operator==(const Resolved&) const = default;
};

/// Straight transcription of §1.1: for every node, count transmitting
/// neighbors directly.
Resolved reference_step(const Graph& g, const std::vector<NodeId>& transmitters,
                        const Bitset& informed) {
  Resolved out;
  out.observations.assign(g.num_nodes(), ChannelObservation::kSilence);
  Bitset is_tx(g.num_nodes());
  for (NodeId t : transmitters) is_tx.set(t);
  for (NodeId w = 0; w < g.num_nodes(); ++w) {
    if (is_tx.test(w)) {  // transmitting, not listening
      out.observations[w] = ChannelObservation::kTransmitting;
      continue;
    }
    std::uint32_t hits = 0;
    NodeId sender = kInvalidNode;
    for (NodeId v : g.neighbors(w)) {
      if (is_tx.test(v)) {
        ++hits;
        sender = v;
      }
    }
    if (hits >= 2) {
      ++out.collisions;
      out.observations[w] = ChannelObservation::kCollision;
    } else if (hits == 1) {
      out.observations[w] = ChannelObservation::kMessage;
      if (!informed.test(sender)) continue;  // jam-only transmitter
      if (informed.test(w))
        ++out.redundant;
      else
        out.delivered.push_back(w);
    }
  }
  return out;
}

Resolved resolve(const RoundResolver& resolver, const Graph& g,
                 const Bitset& informed) {
  Resolved out;
  const RoundResolver::Outcome outcome = resolver.deliver(
      g, informed, [&](NodeId w) { out.delivered.push_back(w); });
  out.collisions = outcome.collisions;
  out.redundant = outcome.redundant;
  out.observations.resize(g.num_nodes());
  resolver.observe(out.observations);
  return out;
}

/// The oracle check: the sparse fold, the dense fold and the cost model's
/// pick each reproduce the reference exactly. `resolver` is reused across
/// calls, so stale scratch from earlier rounds or the other fold would show.
Resolved expect_matches_reference(RoundResolver& resolver, const Graph& g,
                                  const std::vector<NodeId>& transmitters,
                                  const Bitset& informed) {
  const Resolved ref = reference_step(g, transmitters, informed);
  resolver.fold_sparse(g, transmitters);
  EXPECT_EQ(resolver.path(), RoundPath::kSparse);
  EXPECT_EQ(resolve(resolver, g, informed), ref) << "sparse fold";
  resolver.fold_dense(g, transmitters);
  EXPECT_EQ(resolver.path(), RoundPath::kDense);
  EXPECT_EQ(resolve(resolver, g, informed), ref) << "dense fold";
  resolver.fold(g, transmitters);
  EXPECT_EQ(resolve(resolver, g, informed), ref) << "auto fold";
  return ref;
}

Bitset informed_set(NodeId n, std::initializer_list<NodeId> nodes) {
  Bitset b(n);
  for (NodeId v : nodes) b.set(v);
  return b;
}

/// One random round: every node is independently informed and/or transmitting.
void draw_round(NodeId n, double informed_fraction, double tx_fraction,
                Rng& rng, Bitset& informed, std::vector<NodeId>& transmitters) {
  informed = Bitset(n);
  transmitters.clear();
  for (NodeId v = 0; v < n; ++v) {
    if (rng.bernoulli(informed_fraction)) informed.set(v);
    if (rng.bernoulli(tx_fraction)) transmitters.push_back(v);
  }
}

struct Scenario {
  NodeId n;
  double p;
  double informed_fraction;
  double tx_fraction;
};

class EngineEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(EngineEquivalence, MatchesReferenceOnRandomRounds) {
  const Scenario s = GetParam();
  Rng rng(static_cast<std::uint64_t>(s.n) * 31 +
          static_cast<std::uint64_t>(s.p * 1000));
  const Graph g = generate_gnp({s.n, s.p}, rng);
  RoundResolver resolver(g.num_nodes());
  Bitset informed;
  std::vector<NodeId> transmitters;
  for (int round = 0; round < 12; ++round) {
    draw_round(g.num_nodes(), s.informed_fraction, s.tx_fraction, rng,
               informed, transmitters);
    expect_matches_reference(resolver, g, transmitters, informed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, EngineEquivalence,
    ::testing::Values(Scenario{30, 0.2, 0.5, 0.3}, Scenario{100, 0.05, 0.2, 0.1},
                      Scenario{100, 0.05, 0.9, 0.9}, Scenario{250, 0.02, 0.5, 0.02},
                      Scenario{250, 0.3, 0.1, 0.5}, Scenario{60, 0.9, 0.5, 0.5},
                      Scenario{40, 0.1, 0.0, 0.4}, Scenario{40, 0.1, 1.0, 0.05}),
    [](const ::testing::TestParamInfo<Scenario>& pinfo) {
      return "n" + std::to_string(pinfo.param.n) + "_case" +
             std::to_string(pinfo.index);
    });

struct DensityCase {
  double p;
  int instances;
};

class DenseKernelEquivalence : public ::testing::TestWithParam<DensityCase> {};

TEST_P(DenseKernelEquivalence, SparseAndDensePathsAgree) {
  const DensityCase c = GetParam();
  // 4 density points x instances-per-point x 3 rounds each: well over 100
  // (graph, transmitter-set) instances from sparse to near-complete.
  for (int instance = 0; instance < c.instances; ++instance) {
    Rng rng = Rng::for_stream(
        0xD15E, static_cast<std::uint64_t>(instance) * 1000 +
                    static_cast<std::uint64_t>(c.p * 100));
    const NodeId n = static_cast<NodeId>(24 + rng.uniform_below(140));
    const Graph g = generate_gnp({n, c.p}, rng);
    RoundResolver resolver(n);
    Bitset informed;
    std::vector<NodeId> transmitters;
    for (int round = 0; round < 3; ++round) {
      const double informed_fraction = rng.uniform();
      const double tx_fraction = round == 0 ? 0.8 * rng.uniform() : rng.uniform();
      draw_round(n, informed_fraction, tx_fraction, rng, informed,
                 transmitters);
      expect_matches_reference(resolver, g, transmitters, informed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, DenseKernelEquivalence,
                         ::testing::Values(DensityCase{0.01, 10},
                                           DensityCase{0.1, 10},
                                           DensityCase{0.5, 10},
                                           DensityCase{0.9, 10}),
                         [](const ::testing::TestParamInfo<DensityCase>& pinfo) {
                           return "p" + std::to_string(static_cast<int>(
                                            pinfo.param.p * 100));
                         });

TEST(DenseKernel, FullBroadcastIdenticalOnBothPaths) {
  // Whole-broadcast equivalence: every round of a flooding session is
  // checked on both folds against the reference, and the session's own
  // statistics (cost-model fold) match it round for round.
  Rng rng = Rng::for_stream(0xB0A, 7);
  const Graph g = generate_gnp({120, 0.4}, rng);
  BroadcastSession session(g, 0);
  RoundResolver resolver(g.num_nodes());
  for (int round = 0; round < 12 && !session.complete(); ++round) {
    const std::vector<NodeId> tx = session.informed_nodes();  // flood
    const Resolved ref =
        expect_matches_reference(resolver, g, tx, session.informed_set());
    const RoundStats& stats = session.step(tx);
    EXPECT_EQ(stats.newly_informed, ref.delivered.size());
    EXPECT_EQ(stats.collisions, ref.collisions);
    EXPECT_EQ(stats.wasted, ref.redundant);
    for (NodeId w : ref.delivered)
      EXPECT_EQ(session.informed_round(w), stats.round);
  }
}

TEST(DenseKernel, CostModelPrefersSparseOnSparseGraphs) {
  // E1–E7 regime: low degree, modest transmitter sets — fold() must stay on
  // the sparse sweep, the cheaper one there.
  Rng rng = Rng::for_stream(0xC0, 1);
  const Graph g = generate_gnp({400, 0.01}, rng);
  RoundResolver resolver(g.num_nodes());
  const std::vector<NodeId> tx = {0, 1, 2, 3};
  resolver.fold(g, tx);
  EXPECT_EQ(resolver.path(), RoundPath::kSparse);
}

TEST(DenseKernel, CostModelPicksDenseOnDenseRounds) {
  Rng rng = Rng::for_stream(0xC0, 2);
  const Graph g = generate_gnp({512, 0.9}, rng);
  RoundResolver resolver(g.num_nodes());
  std::vector<NodeId> tx;
  for (NodeId v = 0; v < 128; ++v) tx.push_back(v);
  resolver.fold(g, tx);
  EXPECT_EQ(resolver.path(), RoundPath::kDense);
}

// Hand-built edge cases of the model — tiny graphs the cost model never
// sends to the dense fold — as oracle inputs, with the expected outcome
// spelled out.

Graph star() {  // center 0 connected to leaves 1..4
  return Graph::from_edges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
}

/// One round on a fresh resolver through the oracle check.
Resolved check(const Graph& g, const std::vector<NodeId>& transmitters,
               std::initializer_list<NodeId> informed) {
  RoundResolver resolver(g.num_nodes());
  return expect_matches_reference(resolver, g, transmitters,
                                  informed_set(g.num_nodes(), informed));
}

TEST(Engine, SingleTransmitterReachesAllNeighbors) {
  const Resolved r = check(star(), {0}, {0});
  EXPECT_EQ(r.delivered, (std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_EQ(r.collisions, 0u);
  EXPECT_EQ(r.redundant, 0u);
}

TEST(Engine, TwoTransmittersCollideAtCommonNeighbor) {
  // Path 1 - 0 - 2 plus 1-3, 2-4: transmitting {1, 2} jams node 0.
  const Graph g = Graph::from_edges(5, {{0, 1}, {0, 2}, {1, 3}, {2, 4}});
  const Resolved r = check(g, {1, 2}, {1, 2});
  EXPECT_EQ(r.collisions, 1u);                          // node 0
  EXPECT_EQ(r.delivered, (std::vector<NodeId>{3, 4}));  // private neighbors
}

TEST(Engine, TransmitterNeverReceives) {
  // Edge 0-1, both transmit: neither receives (each is transmitting).
  const Resolved r = check(Graph::from_edges(2, {{0, 1}}), {0, 1}, {0});
  EXPECT_TRUE(r.delivered.empty());
  EXPECT_EQ(r.collisions, 0u);
}

TEST(Engine, UninformedTransmitterJamsButDeliversNothing) {
  // 0 informed, 1 uninformed; both adjacent to 2. Transmitting {0, 1}:
  // node 2 hears two transmitters -> collision, nothing delivered.
  const Graph g = Graph::from_edges(3, {{0, 2}, {1, 2}});
  const Resolved r = check(g, {0, 1}, {0});
  EXPECT_TRUE(r.delivered.empty());
  EXPECT_EQ(r.collisions, 1u);
}

TEST(Engine, UninformedSoleTransmitterDeliversNothing) {
  const Resolved r = check(Graph::from_edges(2, {{0, 1}}), {0}, {});
  EXPECT_TRUE(r.delivered.empty());
}

TEST(Engine, RedundantDeliveryCounted) {
  const Resolved r = check(Graph::from_edges(2, {{0, 1}}), {0}, {0, 1});
  EXPECT_TRUE(r.delivered.empty());
  EXPECT_EQ(r.redundant, 1u);
}

TEST(Engine, EmptyTransmitterSetIsSilence) {
  const Resolved r = check(star(), {}, {0});
  EXPECT_TRUE(r.delivered.empty());
  EXPECT_EQ(r.collisions, 0u);
}

TEST(Engine, ScratchStateResetsBetweenRounds) {
  const Graph g = star();
  RoundResolver resolver(5);
  // Round 1: 0 and 1 transmit; leaves 2,3,4 hear only 0 (1 is a leaf of 0,
  // adjacent only to 0) -> delivered {2,3,4}; 0 itself transmitting.
  Resolved r =
      expect_matches_reference(resolver, g, {0, 1}, informed_set(5, {0, 1}));
  EXPECT_EQ(r.delivered, (std::vector<NodeId>{2, 3, 4}));
  // Round 2 with a fresh informed set must not see stale hit counts.
  r = expect_matches_reference(resolver, g, {1}, informed_set(5, {1}));
  EXPECT_EQ(r.delivered, (std::vector<NodeId>{0}));
  EXPECT_EQ(r.collisions, 0u);
}

TEST(Engine, ThreeTransmittersSaturatingCollision) {
  // Node 3 adjacent to 0,1,2 all transmitting: still one collision event.
  const Graph g = Graph::from_edges(4, {{0, 3}, {1, 3}, {2, 3}});
  const Resolved r = check(g, {0, 1, 2}, {0, 1, 2});
  EXPECT_EQ(r.collisions, 1u);
  EXPECT_TRUE(r.delivered.empty());
}

TEST(EngineDeathTest, DuplicateTransmitterRejected) {
  RoundResolver resolver(5);
  const std::vector<NodeId> tx = {0, 0};
  EXPECT_DEATH(resolver.fold(star(), tx), "precondition");
}

TEST(EngineDeathTest, OutOfRangeTransmitterRejected) {
  RoundResolver resolver(5);
  const std::vector<NodeId> tx = {9};
  EXPECT_DEATH(resolver.fold(star(), tx), "precondition");
}

// The EngineDense cases below pinned the dense path when sessions could
// force it; every oracle check now runs both folds, and these keep the
// observation-level expectations the Engine cases above do not spell out.

TEST(EngineDense, UninformedTransmitterJamsButDeliversNothing) {
  const Graph g = Graph::from_edges(3, {{0, 2}, {1, 2}});
  const Resolved r = check(g, {0, 1}, {0});
  EXPECT_TRUE(r.delivered.empty());
  EXPECT_EQ(r.observations[2], ChannelObservation::kCollision);
}

TEST(EngineDense, UninformedSoleTransmitterDeliversNothing) {
  const Resolved r = check(Graph::from_edges(2, {{0, 1}}), {0}, {});
  EXPECT_TRUE(r.delivered.empty());
  EXPECT_EQ(r.observations[1], ChannelObservation::kMessage);
}

TEST(EngineDense, TransmitterNeverReceives) {
  const Resolved r = check(Graph::from_edges(2, {{0, 1}}), {0, 1}, {0});
  EXPECT_TRUE(r.delivered.empty());
  EXPECT_EQ(r.redundant, 0u);
  EXPECT_EQ(r.observations[0], ChannelObservation::kTransmitting);
  EXPECT_EQ(r.observations[1], ChannelObservation::kTransmitting);
}

TEST(EngineDense, AccumulatorsResetBetweenRounds) {
  // The once/twice words are reused across rounds; stale bits from round 1
  // would fabricate collisions in round 2.
  const Graph g = star();
  RoundResolver resolver(5);
  Resolved r =
      expect_matches_reference(resolver, g, {0, 1}, informed_set(5, {0, 1}));
  EXPECT_EQ(r.delivered, (std::vector<NodeId>{2, 3, 4}));
  r = expect_matches_reference(resolver, g, {1}, informed_set(5, {1}));
  EXPECT_EQ(r.delivered, (std::vector<NodeId>{0}));
  EXPECT_EQ(r.collisions, 0u);
}

TEST(EngineDense, ObservationsResetAcrossPathFlips) {
  // Each round's observations start from all-silence, whichever fold wrote
  // last (the oracle runs sparse -> dense -> auto every round).
  const Graph g = star();
  RoundResolver resolver(5);
  const Bitset informed = informed_set(5, {0});
  Resolved r = expect_matches_reference(resolver, g, {0}, informed);
  for (NodeId v = 1; v < 5; ++v)
    EXPECT_EQ(r.observations[v], ChannelObservation::kMessage);
  r = expect_matches_reference(resolver, g, {1}, informed);  // only 0 hears
  EXPECT_EQ(r.observations[0], ChannelObservation::kMessage);
  EXPECT_EQ(r.observations[1], ChannelObservation::kTransmitting);
  for (NodeId v = 2; v < 5; ++v)
    EXPECT_EQ(r.observations[v], ChannelObservation::kSilence) << v;
  r = expect_matches_reference(resolver, g, {}, informed);
  for (NodeId v = 0; v < 5; ++v)
    EXPECT_EQ(r.observations[v], ChannelObservation::kSilence);
}

}  // namespace
}  // namespace radio
