// Dispatch seam between per-instance and batched broadcast execution.
//
// Batching requires trials that share ONE graph (the lane planes are slices
// over a single adjacency): workloads that sample a fresh G(n,p) per trial
// (e.g. E1's per-trial instances) are structurally per-instance and use the
// classic BroadcastSession path unchanged. For shared-instance workloads the cost
// model here decides how many lanes actually pay:
//
//   * oversized — lane state grows with n·⌈B/64⌉ plane words plus per-lane
//     mirrors; batch_lanes_for clamps B so the whole working set stays under
//     kBatchStateByteLimit (halving until it fits, down to the per-instance
//     path);
//   * observation feedback — protocols that want per-node channel
//     observations (collision-detection extension) need state the planes do
//     not track: per-instance fallback;
//   * degenerate — fewer than 2 trials or fewer than 2 lanes: per-instance.
//
// Whatever path runs, trial t's result is byte-identical: both paths drive
// trial t with Rng::for_stream(seed, first_stream + t) over the same
// engine semantics (the determinism contract in batch_scheduler.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/batch/batch_scheduler.hpp"
#include "sim/runner.hpp"

namespace radio {

/// Total bytes of batch lane state allowed (planes + mirrors): the same
/// budget that caps adjacency bitmaps (graph/graph.hpp).
inline constexpr std::size_t kBatchStateByteLimit = kMemoryBudgetBytes;

/// Bytes of lane state a B-lane engine holds on g (4 planes of
/// n·⌈B/64⌉ words plus per-lane informed mirror and round array).
std::size_t batch_state_bytes(const Graph& g, std::uint32_t lanes) noexcept;

/// The cost model's lane clamp: the largest power-of-two-ish lane count
/// <= `requested` whose state fits kBatchStateByteLimit (1 when batching
/// does not apply — requested < 2 or the graph is empty).
std::uint32_t batch_lanes_for(const Graph& g, std::uint32_t requested) noexcept;

/// Which execution path the dispatcher chose, and why: a caller asking for
/// 64 lanes with a wants_observations protocol gets per-instance execution,
/// and the plan says so. Every fallback is reportable (and testable —
/// tests/analysis/test_batch_dispatch.cpp pins each reason).
struct BatchDispatch {
  enum class Path { kBatched, kPerInstance };

  Path path = Path::kPerInstance;
  std::uint32_t lanes = 1;    ///< effective lane width (1 on per-instance)
  const char* reason = "";    ///< why per-instance; "" when batched
};

/// Pure cost-model decision for run_broadcast_batch:
/// clamps `requested_lanes` via batch_lanes_for and reports per-instance
/// for degenerate trial counts or observation-feedback protocols (probes
/// factory(0) once; `factory` must be pure).
BatchDispatch plan_broadcast_batch(const Graph& g, int trials,
                                   const ProtocolFactory& factory,
                                   std::uint32_t requested_lanes);

/// Runs `trials` broadcasts of factory(t) on the SHARED graph g from
/// `source`, trial t drawing from Rng::for_stream(seed, first_stream + t),
/// batched `lanes` wide when the cost model approves and per-instance
/// otherwise. Serial (no OpenMP): callers run it inside their own parallel
/// trial regions (E7's guided searches run one call per generation, one lane
/// per probe).
///
/// `factory` must be pure (no side effects): the dispatcher probes
/// factory(0) once to detect observation-feedback protocols.
///
/// `folds`, when non-null, is incremented by the batch engine's push and
/// pull step counts (unchanged on the per-instance path).
std::vector<BroadcastRun> run_broadcast_batch(
    const Graph& g, const ProtocolContext& ctx, NodeId source, int trials,
    std::uint64_t seed, std::uint64_t first_stream,
    const ProtocolFactory& factory, std::uint32_t max_rounds,
    std::uint32_t lanes, BatchFoldCounts* folds = nullptr);

}  // namespace radio
