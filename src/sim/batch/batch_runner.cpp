#include "sim/batch/batch_runner.hpp"

#include <algorithm>
#include <memory>

#include "util/assert.hpp"

namespace radio {

std::size_t batch_state_bytes(const Graph& g, std::uint32_t lanes) noexcept {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const std::size_t plane_words = n * words_for_bits(lanes);
  const std::size_t planes = 4 * plane_words * sizeof(std::uint64_t);
  const std::size_t mirror = words_for_bits(n) * sizeof(std::uint64_t);
  const std::size_t rounds = n * sizeof(std::uint32_t);
  return planes + static_cast<std::size_t>(lanes) * (mirror + rounds);
}

std::uint32_t batch_lanes_for(const Graph& g,
                              std::uint32_t requested) noexcept {
  if (requested < 2 || g.num_nodes() < 2) return 1;
  std::uint32_t lanes = std::min(requested, kMaxBatchLanes);
  while (lanes > 1 && batch_state_bytes(g, lanes) > kBatchStateByteLimit)
    lanes /= 2;
  return lanes;
}

BatchDispatch plan_broadcast_batch(const Graph& g, int trials,
                                   const ProtocolFactory& factory,
                                   std::uint32_t requested_lanes) {
  BatchDispatch plan;
  plan.lanes = batch_lanes_for(g, requested_lanes);
  if (plan.lanes < 2) {
    plan.lanes = 1;
    plan.reason = requested_lanes < 2 ? "batching not requested"
                                      : "cost model clamped lanes below 2";
    return plan;
  }
  if (trials < 2) {
    plan.lanes = 1;
    plan.reason = "fewer than 2 trials";
    return plan;
  }
  const std::unique_ptr<Protocol> probe = factory(0);
  RADIO_EXPECTS(probe != nullptr);
  if (probe->wants_observations()) {
    plan.lanes = 1;
    plan.reason = "observation-feedback protocol";
    return plan;
  }
  plan.path = BatchDispatch::Path::kBatched;
  return plan;
}

std::vector<BroadcastRun> run_broadcast_batch(
    const Graph& g, const ProtocolContext& ctx, NodeId source, int trials,
    std::uint64_t seed, std::uint64_t first_stream,
    const ProtocolFactory& factory, std::uint32_t max_rounds,
    std::uint32_t lanes, BatchFoldCounts* folds) {
  RADIO_EXPECTS(trials >= 0);
  const BatchDispatch plan = plan_broadcast_batch(g, trials, factory, lanes);
  const std::uint32_t effective = plan.lanes;

  if (plan.path == BatchDispatch::Path::kBatched) {
    BatchScheduler scheduler(g, ctx, effective, max_rounds);
    std::vector<BroadcastRun> runs =
        scheduler.run(seed, first_stream, trials, source, factory);
    if (folds) *folds += scheduler.fold_counts();
    return runs;
  }

  std::vector<BroadcastRun> results(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    Rng rng =
        Rng::for_stream(seed, first_stream + static_cast<std::uint64_t>(t));
    const std::unique_ptr<Protocol> protocol = factory(t);
    RADIO_EXPECTS(protocol != nullptr);
    results[static_cast<std::size_t>(t)] =
        broadcast_with(*protocol, ctx, g, source, rng, max_rounds);
  }
  return results;
}

}  // namespace radio
