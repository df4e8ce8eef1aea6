// Streaming workload drivers: E18's giant-n path (BasicStreamSession over
// the on-demand ImplicitGnp backend) must agree message for message with the
// full StreamSession on the materialized twin, and run_stream_trial
// (analysis/stream_workload.hpp) must be a pure function of the seed and
// stream index it is handed.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/stream_workload.hpp"
#include "graph/implicit_gnp.hpp"
#include "protocols/streaming_adapters.hpp"

namespace radio {
namespace {

// The equivalence pin behind E18: pipelined decay over the implicit backend
// must replicate the materialized run exactly — same arrivals, same coin
// flips, same deliveries, same collisions, same trajectory.
TEST(StreamWorkload, LightMatchesFullPath) {
  const NodeId n = 600;
  const double p = 12.0 / static_cast<double>(n - 1);
  const ImplicitGnp g(n, p, 103);
  const Graph twin = g.materialize();
  const ProtocolContext ctx{n, p};

  StreamConfig config;
  config.rate = 0.02;
  config.horizon = 1200;
  config.seed = 404;
  config.stream = 5;
  config.trajectory_samples = 6;
  auto stream = [&](const auto& graph) {
    const auto protocol = make_pipelined_decay(2);
    BasicStreamSession session(graph, ctx, *protocol, config);
    return session.run();
  };
  const StreamMetrics light = stream(g);
  const StreamMetrics full = stream(twin);
  EXPECT_GT(full.delivered, 0u);
  EXPECT_GT(full.collisions, 0u);
  EXPECT_EQ(light.trajectory.size(), 6u);
  EXPECT_EQ(light, full);
}

TEST(StreamWorkload, LightPathRunsOnImplicitBackend) {
  const ImplicitGnp g(4096, 12.0 / 4096.0, 77);
  StreamConfig config;
  config.rate = 0.005;
  config.horizon = 600;
  config.seed = 77;
  const auto protocol = make_pipelined_decay(2);
  BasicStreamSession<ImplicitGnp> session(
      g, ProtocolContext{g.num_nodes(), 12.0 / 4096.0}, *protocol, config);
  const StreamMetrics metrics = session.run();
  EXPECT_EQ(metrics.rounds, 600u);
  EXPECT_EQ(metrics.enqueued, metrics.delivered + metrics.in_flight_at_horizon +
                                  metrics.waiting_at_horizon);
}

TEST(StreamWorkload, TrialIsDeterministicInSeedAndStream) {
  const GnpParams params = GnpParams::with_degree(64, 16.0);
  const auto run_once = [&](std::uint64_t stream) {
    Rng rng = Rng::for_stream(7, stream);
    return run_stream_trial(
        params, GraphBackendChoice::kAuto,
        [] { return make_pipelined_decay(2); }, 0.02, 800, 7, stream, rng);
  };
  const StreamMetrics a = run_once(0);
  const StreamMetrics b = run_once(0);
  EXPECT_EQ(a.enqueued, b.enqueued);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.latencies, b.latencies);

  const StreamMetrics c = run_once(1);
  EXPECT_TRUE(a.enqueued != c.enqueued || a.latencies != c.latencies);
}

}  // namespace
}  // namespace radio
