// Radio gossiping: session semantics, knowledge merging, protocols.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/workload.hpp"
#include "gossip/gossip_session.hpp"
#include "protocols/decay.hpp"
#include "protocols/round_robin.hpp"
#include "protocols/uniform_gossip.hpp"

namespace radio {
namespace {

Graph path(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v)
    edges.push_back({v, static_cast<NodeId>(v + 1)});
  return Graph::from_edges(n, edges);
}

TEST(GossipSession, InitialKnowledgeIsOwnRumor) {
  const Graph g = path(4);
  GossipSession session(g);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_TRUE(session.knows(v, v));
    EXPECT_EQ(session.knowledge_count(v), 1u);
    for (NodeId r = 0; r < 4; ++r) {
      if (r != v) {
        EXPECT_FALSE(session.knows(v, r));
      }
    }
  }
  EXPECT_EQ(session.total_knowledge(), 4u);
  EXPECT_FALSE(session.complete());
  EXPECT_DOUBLE_EQ(session.coverage(), 0.25);
}

TEST(GossipSession, UniqueTransmitterTransfersWholeSet) {
  const Graph g = path(3);
  GossipSession session(g);
  // 1 learns rumor 0, then transmits to both 0 and 2: each learns 1's whole
  // set {0, 1}.
  session.step(std::vector<NodeId>{0});
  EXPECT_TRUE(session.knows(1, 0));
  session.step(std::vector<NodeId>{1});
  EXPECT_TRUE(session.knows(2, 0));
  EXPECT_TRUE(session.knows(2, 1));
  EXPECT_TRUE(session.knows(0, 1));
  EXPECT_EQ(session.knowledge_count(2), 3u);
}

TEST(GossipSession, CollisionBlocksTransfer) {
  // 0 and 2 both adjacent to 1: simultaneous transmission jams 1.
  const Graph g = path(3);
  GossipSession session(g);
  const std::vector<NodeId> tx = {0, 2};
  const GossipRoundStats& stats = session.step(tx);
  EXPECT_EQ(stats.collisions, 1u);
  EXPECT_EQ(stats.rumors_moved, 0u);
  EXPECT_EQ(session.knowledge_count(1), 1u);
}

TEST(GossipSession, TransmitterReceivesNothing) {
  const Graph g = path(2);
  GossipSession session(g);
  const std::vector<NodeId> tx = {0, 1};
  session.step(tx);
  EXPECT_FALSE(session.knows(0, 1));
  EXPECT_FALSE(session.knows(1, 0));
}

TEST(GossipSession, CompletionOnPathViaSweeps) {
  const Graph g = path(3);
  GossipSession session(g);
  // Alternating single transmitters complete 3-node gossip quickly.
  session.step(std::vector<NodeId>{1});  // 0,2 learn {1}
  session.step(std::vector<NodeId>{0});  // 1 learns {0}
  session.step(std::vector<NodeId>{2});  // 1 learns {2} -> 1 knows all
  session.step(std::vector<NodeId>{1});  // 0,2 learn everything
  EXPECT_TRUE(session.complete());
  EXPECT_DOUBLE_EQ(session.coverage(), 1.0);
}

TEST(GossipSession, ViewMarksEveryNodeInformed) {
  const Graph g = path(70);  // spans two informed-set words
  GossipSession session(g);
  session.step(std::vector<NodeId>{1});
  const SessionView view = session;
  EXPECT_EQ(view.num_nodes(), 70u);
  EXPECT_EQ(view.informed_count(), 70u);
  std::vector<NodeId> walked;
  view.for_each_informed([&](NodeId v) { walked.push_back(v); });
  ASSERT_EQ(walked.size(), 70u);
  for (NodeId v = 0; v < 70; ++v) {
    EXPECT_EQ(walked[v], v);
    EXPECT_TRUE(view.informed(v));
    EXPECT_EQ(view.informed_round(v), 0u);  // every rumor held since round 0
  }
}

TEST(GossipSession, StatsTrackTotals) {
  const Graph g = path(3);
  GossipSession session(g);
  const GossipRoundStats& stats = session.step(std::vector<NodeId>{1});
  EXPECT_EQ(stats.transmitters, 1u);
  EXPECT_EQ(stats.receivers, 2u);
  EXPECT_EQ(stats.rumors_moved, 2u);
  EXPECT_EQ(stats.knowledge_total, 5u);
  EXPECT_EQ(session.current_round(), 1u);
}

TEST(GossipProtocols, UniformDefaultsToOneOverD) {
  UniformGossipProtocol protocol;
  protocol.reset(ProtocolContext{1000, 0.04});  // d = 40
  EXPECT_NEAR(protocol.probability(), 0.025, 1e-12);
}

TEST(GossipProtocols, RoundRobinPicksSingleNode) {
  const Graph g = path(5);
  GossipSession session(g);
  RoundRobinProtocol protocol;
  protocol.reset(ProtocolContext{5, 0.5});
  Rng rng(1);
  std::vector<NodeId> out;
  for (std::uint32_t round = 1; round <= 7; ++round) {
    out.clear();
    protocol.select_transmitters(round, session, rng, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], (round - 1) % 5);
  }
}

TEST(GossipProtocols, RoundRobinCompletesOnPath) {
  const Graph g = path(5);
  GossipSession session(g);
  RoundRobinProtocol protocol;
  Rng rng(2);
  const GossipRun run =
      run_gossip(protocol, ProtocolContext{5, 0.4}, session, rng, 200);
  EXPECT_TRUE(run.completed);
  EXPECT_DOUBLE_EQ(run.coverage, 1.0);
}

TEST(GossipProtocols, UniformCompletesOnGnp) {
  Rng rng(3);
  const NodeId n = 256;
  const double ln_n = std::log(static_cast<double>(n));
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
  GossipSession session(instance.graph);
  UniformGossipProtocol protocol;
  const GossipRun run =
      run_gossip(protocol, context_for(instance), session, rng,
                 static_cast<std::uint32_t>(400.0 * ln_n));
  EXPECT_TRUE(run.completed);
}

TEST(GossipProtocols, DecayCompletesOnGnp) {
  Rng rng(4);
  const NodeId n = 256;
  const double ln_n = std::log(static_cast<double>(n));
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
  GossipSession session(instance.graph);
  DecayProtocol protocol;
  const GossipRun run =
      run_gossip(protocol, context_for(instance), session, rng,
                 static_cast<std::uint32_t>(1000.0 * ln_n));
  EXPECT_TRUE(run.completed);
}

TEST(GossipProtocols, KnowledgeIsMonotone) {
  Rng rng(5);
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(128, 16.0), rng);
  GossipSession session(instance.graph);
  UniformGossipProtocol protocol;
  protocol.reset(context_for(instance));
  std::vector<NodeId> out;
  std::uint64_t previous = session.total_knowledge();
  for (std::uint32_t round = 1; round <= 50; ++round) {
    out.clear();
    protocol.select_transmitters(round, session, rng, out);
    session.step(out);
    EXPECT_GE(session.total_knowledge(), previous);
    previous = session.total_knowledge();
  }
}

TEST(GossipProtocols, BudgetExhaustionReportsCoverage) {
  Rng rng(6);
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(256, 30.0), rng);
  GossipSession session(instance.graph);
  UniformGossipProtocol protocol;
  const GossipRun run =
      run_gossip(protocol, context_for(instance), session, rng, 5);
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(run.rounds, 5u);
  EXPECT_GT(run.coverage, 0.0);
  EXPECT_LT(run.coverage, 1.0);
}

// Every node informed, the broadcast protocols are the gossip schedulers:
// pins the rounds, transmissions and coverage each one reaches on a fixed
// instance, so a change to how they walk the informed set shows up here
// and not first as a drift in E12's table.
TEST(GossipProtocols, RunDigestPinned) {
  Rng rng(12);
  const NodeId n = 256;
  const double ln_n = std::log(static_cast<double>(n));
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
  UniformGossipProtocol uniform;
  RoundRobinProtocol round_robin;
  DecayProtocol decay;
  struct Case {
    Protocol* protocol;
    std::uint32_t budget;
    std::uint32_t rounds;
    std::uint64_t transmissions;
    double coverage;
  };
  const auto full = static_cast<std::uint32_t>(1000.0 * ln_n);
  const Case cases[] = {
      {&uniform, full, 308, 2609, 1.0},
      {&uniform, 40, 40, 349, 0.610107421875},
      {&round_robin, 16 * n, 318, 318, 1.0},
      {&decay, full, 742, 47718, 1.0},
  };
  std::uint64_t stream = 0;
  for (const Case& c : cases) {
    GossipSession session(instance.graph);
    Rng run_rng = Rng::for_stream(13, stream++);
    const GossipRun run = run_gossip(*c.protocol, context_for(instance),
                                     session, run_rng, c.budget);
    EXPECT_EQ(run.rounds, c.rounds) << c.protocol->name();
    EXPECT_EQ(run.transmissions, c.transmissions) << c.protocol->name();
    EXPECT_EQ(run.coverage, c.coverage) << c.protocol->name();
  }
}

}  // namespace
}  // namespace radio
