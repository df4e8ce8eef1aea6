// Property test: every lane of BatchEngine advances exactly like a solo
// BroadcastSession fed the same transmitter sets — round by round, across
// random graphs, lane counts (including multi-word strides), dense and
// sparse regimes, and schedules that mix informed and uninformed (jamming)
// transmitters. This is the differential half of the sim/batch determinism
// contract; tests/analysis/test_batch_determinism.cpp pins the scheduler
// half (trial packing).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/random_graph.hpp"
#include "sim/batch/batch_engine.hpp"
#include "sim/session.hpp"

namespace radio {
namespace {

struct Scenario {
  NodeId n;
  double p;
  std::uint32_t lanes;
  int rounds;
};

/// Drives `lanes` batch lanes and `lanes` reference sessions in lockstep
/// with identical randomized transmitter schedules and checks outcome
/// counters, informed bits, informed rounds and completion after each round.
void run_lockstep(const Graph& g, std::uint32_t lanes, int rounds,
                  std::uint64_t seed) {
  BatchEngine engine(g, lanes);
  std::vector<std::unique_ptr<BroadcastSession>> ref;
  std::vector<std::uint32_t> active;
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    const NodeId source = static_cast<NodeId>(lane % g.num_nodes());
    engine.open_lane(lane, source);
    ref.push_back(std::make_unique<BroadcastSession>(g, source));
    active.push_back(lane);
  }

  // One schedule RNG per lane, deliberately NOT shared with the engine —
  // the engine never draws randomness; protocols do.
  std::vector<Rng> schedule_rng;
  for (std::uint32_t lane = 0; lane < lanes; ++lane)
    schedule_rng.push_back(Rng::for_stream(seed, lane));

  std::vector<std::vector<NodeId>> tx(lanes);
  for (int round = 1; round <= rounds; ++round) {
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      tx[lane].clear();
      // Vary aggressiveness per lane so lanes genuinely diverge; include
      // occasional uninformed transmitters to exercise the jam/resolve path.
      const double p_informed = 0.15 + 0.7 * static_cast<double>(lane % 5) / 5;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const bool informed = ref[lane]->informed(v);
        const double p_tx = informed ? p_informed : 0.04;
        if (schedule_rng[lane].bernoulli(p_tx)) tx[lane].push_back(v);
      }
      for (NodeId v : tx[lane]) engine.add_transmitter(lane, v);
    }

    engine.step(active);

    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      const RoundStats& stats = ref[lane]->step(tx[lane]);
      const BatchEngine::LaneOutcome& outcome = engine.outcome(lane);
      ASSERT_EQ(outcome.transmitters, stats.transmitters)
          << "lane " << lane << " round " << round;
      ASSERT_EQ(outcome.newly_informed, stats.newly_informed)
          << "lane " << lane << " round " << round;
      ASSERT_EQ(outcome.collisions, stats.collisions)
          << "lane " << lane << " round " << round;
      ASSERT_EQ(outcome.redundant, stats.wasted)
          << "lane " << lane << " round " << round;
      ASSERT_EQ(engine.informed_count(lane), ref[lane]->informed_count());
      ASSERT_EQ(engine.round(lane), ref[lane]->current_round());
      ASSERT_EQ(engine.complete(lane), ref[lane]->complete());
    }

    // Full per-node state audit (bits + informed rounds) every few rounds;
    // counters above already catch most divergence cheaply.
    if (round % 3 == 0 || round == rounds) {
      for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        const SessionView view = engine.view(lane);
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          ASSERT_EQ(engine.informed(lane, v), ref[lane]->informed(v))
              << "lane " << lane << " node " << v << " round " << round;
          ASSERT_EQ(view.informed_round(v), ref[lane]->informed_round(v))
              << "lane " << lane << " node " << v << " round " << round;
        }
      }
    }
  }
}

class BatchEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(BatchEquivalence, LanesMatchSoloSessionsRoundByRound) {
  const Scenario s = GetParam();
  Rng rng(static_cast<std::uint64_t>(s.n) * 131 + s.lanes);
  const Graph g = generate_gnp({s.n, s.p}, rng);
  run_lockstep(g, s.lanes, s.rounds, /*seed=*/s.n * 977ULL + s.lanes);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, BatchEquivalence,
    ::testing::Values(
        // Single lane: the batch kernel degenerates to one instance.
        Scenario{60, 0.25, 1, 10},
        // Partial word, dense regime (collision-heavy).
        Scenario{60, 0.25, 3, 10},
        // Full word, sparse regime (resolve path, slow spread).
        Scenario{200, 0.03, 64, 12},
        // Multi-word stride: lane masks span two words.
        Scenario{80, 0.10, 96, 10},
        // Tiny dense graph, lanes outnumber nodes (sources wrap).
        Scenario{9, 0.50, 64, 8}),
    [](const ::testing::TestParamInfo<Scenario>& pinfo) {
      return "n" + std::to_string(pinfo.param.n) + "_lanes" +
             std::to_string(pinfo.param.lanes) + "_case" +
             std::to_string(pinfo.index);
    });

TEST(BatchEquivalence, PathGraphSingletonWavefrontsMatch) {
  // Deterministic schedule on a path: each lane transmits its informed
  // frontier every round; delivery must track the solo session exactly.
  const NodeId n = 24;
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v)
    edges.push_back({v, static_cast<NodeId>(v + 1)});
  const Graph g = Graph::from_edges(n, edges);

  const std::uint32_t lanes = 5;
  BatchEngine engine(g, lanes);
  std::vector<std::unique_ptr<BroadcastSession>> ref;
  std::vector<std::uint32_t> active;
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    const NodeId source = static_cast<NodeId>((lane * 7) % n);
    engine.open_lane(lane, source);
    ref.push_back(std::make_unique<BroadcastSession>(g, source));
    active.push_back(lane);
  }
  for (int round = 1; round <= static_cast<int>(n); ++round) {
    std::vector<std::vector<NodeId>> tx(lanes);
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      for (NodeId v = 0; v < n; ++v)
        if (ref[lane]->informed(v)) tx[lane].push_back(v);
      // Every informed node transmits: on a path interior nodes collide,
      // the two frontier edges deliver.
      for (NodeId v : tx[lane]) engine.add_transmitter(lane, v);
    }
    engine.step(active);
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      const RoundStats& stats = ref[lane]->step(tx[lane]);
      ASSERT_EQ(engine.outcome(lane).newly_informed, stats.newly_informed);
      ASSERT_EQ(engine.outcome(lane).collisions, stats.collisions);
      ASSERT_EQ(engine.informed_count(lane), ref[lane]->informed_count());
    }
  }
  for (std::uint32_t lane = 0; lane < lanes; ++lane)
    EXPECT_TRUE(engine.complete(lane));
}

TEST(BatchEquivalence, PushAndPullFoldsMatchSoloSessions) {
  // One-transmitter rounds (a lone node: Σ deg far below m/4, push) alternate
  // with flood rounds (every informed node of every lane, plus an
  // uninformed jammer in every fourth lane: the union covers the graph,
  // pull). Each lane must track its solo session under both folds.
  Rng rng(4242);
  const Graph g = generate_gnp({300, 0.05}, rng);
  const std::uint32_t lanes = 64;
  BatchEngine engine(g, lanes);
  std::vector<std::unique_ptr<BroadcastSession>> ref;
  std::vector<std::uint32_t> active;
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    const NodeId source = static_cast<NodeId>((lane * 37) % g.num_nodes());
    engine.open_lane(lane, source);
    ref.push_back(std::make_unique<BroadcastSession>(g, source));
    active.push_back(lane);
  }
  const int rounds = 12;
  std::vector<std::vector<NodeId>> tx(lanes);
  for (int round = 1; round <= rounds; ++round) {
    const bool flood = round % 2 == 0;
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      tx[lane].clear();
      if (flood) {
        const NodeId jammer =
            static_cast<NodeId>((round * 53 + lane) % g.num_nodes());
        for (NodeId v = 0; v < g.num_nodes(); ++v)
          if (ref[lane]->informed(v) || (lane % 4 == 0 && v == jammer))
            tx[lane].push_back(v);
      } else if (lane == static_cast<std::uint32_t>(round) % lanes) {
        tx[lane].push_back(static_cast<NodeId>((lane * 37) % g.num_nodes()));
      }
      engine.add_transmitters(lane, tx[lane]);
    }
    engine.step(active);
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      const RoundStats& stats = ref[lane]->step(tx[lane]);
      const BatchEngine::LaneOutcome& outcome = engine.outcome(lane);
      ASSERT_EQ(outcome.transmitters, stats.transmitters)
          << "lane " << lane << " round " << round;
      ASSERT_EQ(outcome.newly_informed, stats.newly_informed)
          << "lane " << lane << " round " << round;
      ASSERT_EQ(outcome.collisions, stats.collisions)
          << "lane " << lane << " round " << round;
      ASSERT_EQ(outcome.redundant, stats.wasted)
          << "lane " << lane << " round " << round;
      const SessionView view = engine.view(lane);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(engine.informed(lane, v), ref[lane]->informed(v))
            << "lane " << lane << " node " << v << " round " << round;
        ASSERT_EQ(view.informed_round(v), ref[lane]->informed_round(v))
            << "lane " << lane << " node " << v << " round " << round;
      }
    }
  }
  const BatchFoldCounts& folds = engine.fold_counts();
  EXPECT_GT(folds.push, 0u);
  EXPECT_GT(folds.pull, 0u);
  EXPECT_EQ(folds.push + folds.pull, static_cast<std::uint64_t>(rounds));
}

}  // namespace
}  // namespace radio
