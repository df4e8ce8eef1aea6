// Baseline protocols: flooding, round-robin, decay, uniform gossip.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/workload.hpp"
#include "core/adversary.hpp"
#include "core/distributed.hpp"
#include "core/lower_bound.hpp"
#include "protocols/adaptive_backoff.hpp"
#include "protocols/decay.hpp"
#include "protocols/flooding.hpp"
#include "protocols/round_robin.hpp"
#include "protocols/selective_family.hpp"
#include "protocols/uniform_gossip.hpp"
#include "sim/runner.hpp"

namespace radio {
namespace {

Graph path(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v)
    edges.push_back({v, static_cast<NodeId>(v + 1)});
  return Graph::from_edges(n, edges);
}

TEST(Flooding, SelectsAllInformed) {
  Rng rng(1);
  const Graph g = path(4);
  FloodingProtocol protocol;
  protocol.reset(ProtocolContext{4, 0.5});
  BroadcastSession session(g, 1);
  session.step(std::vector<NodeId>{1});  // informs 0 and 2
  std::vector<NodeId> out;
  protocol.select_transmitters(2, session, rng, out);
  EXPECT_EQ(out, (std::vector<NodeId>{0, 1, 2}));
}

TEST(Flooding, CompletesOnPathDespiteCollisions) {
  // On a path, flooding actually works: the frontier node is always the
  // unique transmitting neighbor of the next node.
  Rng rng(2);
  const Graph g = path(10);
  FloodingProtocol protocol;
  const BroadcastRun run =
      broadcast_with(protocol, ProtocolContext{10, 0.2}, g, 0, rng, 50);
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.rounds, 9u);
}

TEST(Flooding, StallsOnGnp) {
  // The motivating failure: on a random graph flooding jams and never
  // finishes (every uninformed node near the frontier hears many speakers).
  Rng rng(3);
  const NodeId n = 512;
  const double ln_n = std::log(static_cast<double>(n));
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
  FloodingProtocol protocol;
  const BroadcastRun run =
      broadcast_with(protocol, context_for(instance), instance.graph, 0, rng,
                     static_cast<std::uint32_t>(20.0 * ln_n));
  EXPECT_FALSE(run.completed);
  // It informs the first neighborhood and then grinds to a halt well below n.
  EXPECT_LT(run.informed, instance.graph.num_nodes() / 2);
}

TEST(RoundRobin, CompletesCollisionFree) {
  Rng rng(4);
  const Graph g = path(6);
  RoundRobinProtocol protocol;
  BroadcastSession session(g, 0);
  const BroadcastRun run =
      run_protocol(protocol, ProtocolContext{6, 0.3}, session, rng, 100);
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(session.total_collisions(), 0u);
}

TEST(RoundRobin, AtMostOneTransmitterPerRound) {
  Rng rng(5);
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(128, 12.0), rng);
  RoundRobinProtocol protocol;
  protocol.reset(context_for(instance));
  BroadcastSession session(instance.graph, 0);
  std::vector<NodeId> out;
  for (std::uint32_t round = 1; round <= 300; ++round) {
    out.clear();
    protocol.select_transmitters(round, session, rng, out);
    EXPECT_LE(out.size(), 1u);
    session.step(out);
    if (session.complete()) break;
  }
  EXPECT_TRUE(session.complete());
}

TEST(RoundRobin, CompletesOnGnpWithinNTimesDiameter) {
  Rng rng(6);
  const NodeId n = 256;
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(n, 16.0), rng);
  RoundRobinProtocol protocol;
  const BroadcastRun run = broadcast_with(
      protocol, context_for(instance), instance.graph, 0, rng, n * 10);
  EXPECT_TRUE(run.completed);
  EXPECT_GT(run.rounds, static_cast<std::uint32_t>(n) / 4);  // Theta(n*D) is slow
}

TEST(Decay, PhaseLengthIsCeilLog2) {
  DecayProtocol protocol;
  protocol.reset(ProtocolContext{1024, 0.1});
  EXPECT_EQ(protocol.phase_length(), 10u);
  protocol.reset(ProtocolContext{1000, 0.1});
  EXPECT_EQ(protocol.phase_length(), 10u);  // ceil(log2 1000)
}

TEST(Decay, FirstRoundOfPhaseAllInformedTransmit) {
  Rng rng(7);
  const Graph g = path(4);
  DecayProtocol protocol;
  protocol.reset(ProtocolContext{4, 0.5});
  BroadcastSession session(g, 1);
  std::vector<NodeId> out;
  protocol.select_transmitters(1, session, rng, out);
  EXPECT_EQ(out, (std::vector<NodeId>{1}));
}

TEST(Decay, ActiveSetShrinksWithinPhase) {
  Rng rng(8);
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(1024, 40.0), rng);
  DecayProtocol protocol;
  protocol.reset(context_for(instance));
  BroadcastSession session(instance.graph, 0);
  // Seed a large informed set by flooding a couple of rounds manually.
  session.step(std::vector<NodeId>{0});
  std::vector<NodeId> first, later;
  // Phase boundary: round numbers 1 + k*phase_length.
  const std::uint32_t phase = protocol.phase_length();
  protocol.select_transmitters(phase + 1, session, rng, first);
  protocol.select_transmitters(phase + 4, session, rng, later);
  EXPECT_GE(first.size(), later.size());
}

TEST(Decay, CompletesOnGnp) {
  Rng rng(9);
  const NodeId n = 1024;
  const double ln_n = std::log(static_cast<double>(n));
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
  DecayProtocol protocol;
  const BroadcastRun run = broadcast_with(
      protocol, context_for(instance), instance.graph, 0, rng,
      static_cast<std::uint32_t>(60.0 * ln_n));
  EXPECT_TRUE(run.completed);
}

TEST(UniformGossip, DefaultRateIsOneOverD) {
  UniformGossipProtocol protocol;
  protocol.reset(ProtocolContext{1000, 0.05});  // d = 50
  EXPECT_NEAR(protocol.probability(), 1.0 / 50.0, 1e-12);
}

TEST(UniformGossip, ExplicitRateClampedToOne) {
  UniformGossipProtocol protocol(3.0);
  protocol.reset(ProtocolContext{1000, 0.05});
  EXPECT_DOUBLE_EQ(protocol.probability(), 1.0);
}

TEST(UniformGossip, CompletesOnGnpEventually) {
  Rng rng(10);
  const NodeId n = 512;
  const double ln_n = std::log(static_cast<double>(n));
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
  UniformGossipProtocol protocol;
  const BroadcastRun run = broadcast_with(
      protocol, context_for(instance), instance.graph, 0, rng,
      static_cast<std::uint32_t>(200.0 * ln_n));
  EXPECT_TRUE(run.completed);
}

TEST(UniformGossip, SlowerThanTheorem7Start) {
  // q = 1/d wastes the early rounds where flooding is optimal (the source
  // transmits with probability 3/d over three rounds); Theorem 7's
  // non-selective ramp-up reaches Theta(d) informed immediately. Statistical
  // check: the gossip start stays tiny in the vast majority of trials.
  const NodeId n = 2048;
  const double ln_n = std::log(static_cast<double>(n));
  const double d = ln_n * ln_n;
  int slow_starts = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    Rng rng = Rng::for_stream(11, static_cast<std::uint64_t>(trial));
    const BroadcastInstance instance =
        make_broadcast_instance(GnpParams::with_degree(n, d), rng);
    UniformGossipProtocol gossip;
    gossip.reset(context_for(instance));
    BroadcastSession session(instance.graph, 0);
    std::vector<NodeId> out;
    for (std::uint32_t round = 1; round <= 3; ++round) {
      out.clear();
      gossip.select_transmitters(round, session, rng, out);
      session.step(out);
    }
    if (session.informed_count() < 10) ++slow_starts;
  }
  // P(source transmits within 3 rounds) = 1-(1-1/d)^3 ~ 5%; allow 4x.
  EXPECT_GE(slow_starts, trials - 4);
}


// FNV-1a over every round's transmitter list (its length, then its ids) as
// run_protocol hands it to the session. Pins each protocol's exact draw
// sequence: a change in how a protocol walks the informed set must
// reproduce every transmitter of every round, not just the round count.
constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

void fnv_mix(std::uint64_t& h, std::uint32_t x) {
  for (int byte = 0; byte < 4; ++byte) {
    h ^= (x >> (8 * byte)) & 0xffu;
    h *= 1099511628211ULL;
  }
}

class SelectionDigest final : public Protocol {
 public:
  explicit SelectionDigest(Protocol& inner) : inner_(&inner) {}

  std::string name() const override { return inner_->name(); }
  bool is_distributed() const override { return inner_->is_distributed(); }
  void reset(const ProtocolContext& ctx) override { inner_->reset(ctx); }
  void select_transmitters(std::uint32_t round, const SessionView& session,
                           Rng& rng, std::vector<NodeId>& out) override {
    inner_->select_transmitters(round, session, rng, out);
    mix(static_cast<std::uint32_t>(out.size()));
    for (const NodeId v : out) mix(v);
  }
  bool wants_observations() const override {
    return inner_->wants_observations();
  }
  void observe(std::uint32_t round,
               std::span<const ChannelObservation> observations) override {
    inner_->observe(round, observations);
  }

  std::uint64_t value() const noexcept { return h_; }

 private:
  void mix(std::uint32_t x) { fnv_mix(h_, x); }

  Protocol* inner_;
  std::uint64_t h_ = kFnvBasis;
};

TEST(Protocols, SelectionDigestPinned) {
  // The instance Gnp.CsrInstanceDigestPinned pins byte for byte.
  Rng graph_rng(2);
  const GnpParams params =
      GnpParams::with_degree(1000, 3.0 * std::log(1000.0));
  const Graph g = generate_gnp(params, graph_rng);
  const ProtocolContext ctx{params.n, params.p};
  constexpr std::uint32_t kBudget = 120;

  FloodingProtocol flooding;
  UniformGossipProtocol uniform;
  AdaptiveBackoffProtocol backoff;
  SelectiveFamilyProtocol selective;
  ObliviousSequenceProtocol oblivious(
      theorem7_oblivious_sequence(ctx, kBudget));
  SmallSetScheduleProtocol small_set(2);
  ElsasserGasieniecBroadcast theorem7;
  ElsasserGasieniecBroadcast theorem7_all({1.0, true});
  DecayProtocol decay;
  struct Case {
    Protocol* protocol;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {&flooding, 728088718210442681ULL},
      {&uniform, 13807273659539700651ULL},
      {&backoff, 9010472808227207533ULL},
      {&selective, 8740504065839929198ULL},
      {&oblivious, 14654761726004743036ULL},
      {&small_set, 210769468507226975ULL},
      {&theorem7, 9886846418909394507ULL},
      {&theorem7_all, 16695325445918043484ULL},
      {&decay, 11977795777508668149ULL},
  };
  std::uint64_t stream = 0;
  for (const Case& c : cases) {
    SelectionDigest digest(*c.protocol);
    BroadcastSession session(g, 0);
    Rng rng = Rng::for_stream(7, stream++);
    run_protocol(digest, ctx, session, rng, kBudget);
    EXPECT_EQ(digest.value(), c.digest) << c.protocol->name();
  }

  // The guided adversary's greedy seed: with one seed and no generations the
  // certificate IS the greedy max-coverage schedule.
  GuidedSearchParams search;
  search.round_budget = kBudget;
  search.generations = 0;
  search.population = 1;
  Rng search_rng(8);
  const GuidedSearchOutcome outcome =
      guided_small_set_search(g, 0, search, search_rng);
  std::uint64_t h = kFnvBasis;
  for (const SmallRoundSet& set : outcome.certificate.small_sets) {
    fnv_mix(h, set.size);
    for (std::uint8_t i = 0; i < set.size; ++i) fnv_mix(h, set.node[i]);
  }
  EXPECT_EQ(outcome.certificate.rounds, 86u);
  EXPECT_EQ(h, 16248026560020478180ULL);
}

}  // namespace
}  // namespace radio
