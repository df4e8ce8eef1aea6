// Theorem 7 distributed protocol: probability schedule, eligibility rules,
// completion behaviour, determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/workload.hpp"
#include "core/distributed.hpp"
#include "sim/runner.hpp"

namespace radio {
namespace {

TEST(Distributed, PhaseSwitchRoundMatchesLogRatio) {
  ElsasserGasieniecBroadcast protocol;
  // n = 4096, d = 64: D = ln n / ln d = 2.
  protocol.reset(ProtocolContext{4096, 64.0 / 4096.0});
  EXPECT_EQ(protocol.phase_switch_round(), 2u);
}

TEST(Distributed, ProbabilityScheduleShape) {
  ElsasserGasieniecBroadcast protocol;
  const NodeId n = 4096;
  const double d = 64.0;
  protocol.reset(ProtocolContext{n, d / n});
  const std::uint32_t D = protocol.phase_switch_round();
  for (std::uint32_t t = 1; t < D; ++t)
    EXPECT_DOUBLE_EQ(protocol.transmit_probability(t), 1.0);
  // Round D: n / d^D in (0, 1].
  const double kick = protocol.transmit_probability(D);
  EXPECT_GT(kick, 0.0);
  EXPECT_LE(kick, 1.0);
  EXPECT_NEAR(kick, 4096.0 / std::pow(64.0, 2.0), 1e-9);
  // Tail: 1/d.
  EXPECT_NEAR(protocol.transmit_probability(D + 1), 1.0 / d, 1e-12);
  EXPECT_NEAR(protocol.transmit_probability(D + 100), 1.0 / d, 1e-12);
}

TEST(Distributed, TailRateScaleOption) {
  DistributedOptions options;
  options.selective_rate_scale = 2.0;
  ElsasserGasieniecBroadcast protocol(options);
  protocol.reset(ProtocolContext{4096, 64.0 / 4096.0});
  EXPECT_NEAR(protocol.transmit_probability(protocol.phase_switch_round() + 1),
              2.0 / 64.0, 1e-12);
}

TEST(Distributed, CompletesOnGnpRegularly) {
  int completions = 0;
  const int trials = 10;
  for (int trial = 0; trial < trials; ++trial) {
    Rng rng = Rng::for_stream(5, static_cast<std::uint64_t>(trial));
    const NodeId n = 1024;
    const double ln_n = std::log(static_cast<double>(n));
    const BroadcastInstance instance =
        make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
    ElsasserGasieniecBroadcast protocol;
    const BroadcastRun run = broadcast_with(
        protocol, context_for(instance), instance.graph, 0, rng,
        static_cast<std::uint32_t>(80.0 * ln_n));
    completions += run.completed ? 1 : 0;
  }
  EXPECT_GE(completions, 9);  // w.h.p. statement
}

TEST(Distributed, AllInformedTailVariantCompletes) {
  Rng rng(6);
  const NodeId n = 1024;
  const double ln_n = std::log(static_cast<double>(n));
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
  DistributedOptions options;
  options.tail_includes_late_informed = true;
  ElsasserGasieniecBroadcast protocol(options);
  const BroadcastRun run = broadcast_with(
      protocol, context_for(instance), instance.graph, 0, rng,
      static_cast<std::uint32_t>(80.0 * ln_n));
  EXPECT_TRUE(run.completed);
}

TEST(Distributed, RoundsWithinLogEnvelope) {
  // O(ln n) with a generous constant: <= 15 ln n across several seeds.
  const NodeId n = 2048;
  const double ln_n = std::log(static_cast<double>(n));
  for (std::uint64_t seed = 20; seed < 24; ++seed) {
    Rng rng(seed);
    const BroadcastInstance instance =
        make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
    ElsasserGasieniecBroadcast protocol;
    const BroadcastRun run = broadcast_with(
        protocol, context_for(instance), instance.graph, 0, rng,
        static_cast<std::uint32_t>(80.0 * ln_n));
    ASSERT_TRUE(run.completed);
    EXPECT_LE(static_cast<double>(run.rounds), 15.0 * ln_n);
  }
}

TEST(Distributed, FirstRoundOnlySourceTransmits) {
  Rng rng(7);
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(256, 20.0), rng);
  ElsasserGasieniecBroadcast protocol;
  protocol.reset(context_for(instance));
  BroadcastSession session(instance.graph, 3);
  std::vector<NodeId> out;
  protocol.select_transmitters(1, session, rng, out);
  // Round 1 is non-selective: every informed node transmits; only the
  // source is informed.
  EXPECT_EQ(out, (std::vector<NodeId>{3}));
}

TEST(Distributed, PaperTailExcludesLateInformed) {
  // Construct a session where a node is informed after round D and verify it
  // never transmits in the tail under the paper rule.
  Rng rng(8);
  const BroadcastInstance instance =
      make_broadcast_instance(GnpParams::with_degree(512, 30.0), rng);
  ElsasserGasieniecBroadcast protocol;
  const ProtocolContext ctx = context_for(instance);
  protocol.reset(ctx);
  const std::uint32_t D = protocol.phase_switch_round();

  BroadcastSession session(instance.graph, 0);
  // Drive rounds past D with everything transmitting so informed_round
  // values both <= D and > D exist.
  std::vector<NodeId> tx;
  for (std::uint32_t round = 1; round <= D + 3; ++round) {
    tx.clear();
    protocol.select_transmitters(round, session, rng, tx);
    session.step(tx);
  }
  std::vector<NodeId> late;
  for (NodeId v = 0; v < instance.graph.num_nodes(); ++v)
    if (session.informed(v) && session.informed_round(v) > D) late.push_back(v);
  if (late.empty()) GTEST_SKIP() << "no late-informed nodes in this draw";
  // Sample many tail selections: late nodes must never appear.
  for (int i = 0; i < 50; ++i) {
    tx.clear();
    protocol.select_transmitters(D + 4, session, rng, tx);
    for (NodeId v : tx) EXPECT_LE(session.informed_round(v), D);
  }
}

/// Every round's transmitter list of `protocol` on a fresh session of g,
/// for `rounds` rounds (or until complete); reset() is called first.
std::vector<std::vector<NodeId>> transmitter_lists(
    ElsasserGasieniecBroadcast& protocol, const BroadcastInstance& instance,
    NodeId source, std::uint64_t seed, std::uint32_t rounds) {
  protocol.reset(context_for(instance));
  BroadcastSession session(instance.graph, source);
  Rng rng(seed);
  std::vector<std::vector<NodeId>> lists;
  for (std::uint32_t round = 1; round <= rounds && !session.complete();
       ++round) {
    lists.emplace_back();
    protocol.select_transmitters(round, session, rng, lists.back());
    session.step(lists.back());
  }
  return lists;
}

TEST(Distributed, TailListResetsBetweenInstances) {
  // The paper's tail draws over a list of rounds-0…D knowers built at the
  // first tail call. One object run on two instances, with reset() between,
  // must select exactly what fresh objects select, round by round — a list
  // left over from the first instance would replay its knowers.
  Rng rng(21);
  const BroadcastInstance a =
      make_broadcast_instance(GnpParams::with_degree(512, 12.0), rng);
  const BroadcastInstance b =
      make_broadcast_instance(GnpParams::with_degree(512, 12.0), rng);
  const std::uint32_t rounds = 60;

  ElsasserGasieniecBroadcast reused;
  const auto reused_a = transmitter_lists(reused, a, 0, 5, rounds);
  const auto reused_b = transmitter_lists(reused, b, 7, 6, rounds);
  ElsasserGasieniecBroadcast fresh_a_protocol;
  ElsasserGasieniecBroadcast fresh_b_protocol;
  const auto fresh_a = transmitter_lists(fresh_a_protocol, a, 0, 5, rounds);
  const auto fresh_b = transmitter_lists(fresh_b_protocol, b, 7, 6, rounds);

  // Both runs reach the tail, so the list is built on each instance.
  ASSERT_GT(fresh_a.size(), reused.phase_switch_round() + 1);
  ASSERT_GT(fresh_b.size(), reused.phase_switch_round() + 1);
  EXPECT_EQ(reused_a, fresh_a);
  ASSERT_EQ(reused_b.size(), fresh_b.size());
  for (std::size_t r = 0; r < fresh_b.size(); ++r)
    EXPECT_EQ(reused_b[r], fresh_b[r]) << "round " << r + 1;
}

TEST(Distributed, DeterministicGivenSeed) {
  const NodeId n = 512;
  const double ln_n = std::log(static_cast<double>(n));
  auto run_once = [&](std::uint64_t seed) {
    Rng rng(seed);
    const BroadcastInstance instance =
        make_broadcast_instance(GnpParams::with_degree(n, ln_n * ln_n), rng);
    ElsasserGasieniecBroadcast protocol;
    return broadcast_with(protocol, context_for(instance), instance.graph, 0,
                          rng, 400)
        .rounds;
  };
  EXPECT_EQ(run_once(99), run_once(99));
}

TEST(Distributed, NameReflectsVariant) {
  ElsasserGasieniecBroadcast paper;
  EXPECT_EQ(paper.name(), "elsasser-gasieniec");
  DistributedOptions options;
  options.tail_includes_late_informed = true;
  ElsasserGasieniecBroadcast variant(options);
  EXPECT_NE(variant.name(), paper.name());
  EXPECT_TRUE(paper.is_distributed());
}

TEST(DistributedDeathTest, RejectsDegenerateContext) {
  ElsasserGasieniecBroadcast protocol;
  EXPECT_DEATH(protocol.reset(ProtocolContext{1, 0.5}), "precondition");
  EXPECT_DEATH(protocol.reset(ProtocolContext{100, 0.0}), "precondition");
  // d = p*n <= 1 is out of regime.
  EXPECT_DEATH(protocol.reset(ProtocolContext{100, 0.005}), "precondition");
}

}  // namespace
}  // namespace radio
