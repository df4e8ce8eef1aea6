// Drives a queue of broadcast trials through a BatchEngine.
//
// Each lane hosts one trial: its own Protocol instance, its own
// Rng::for_stream(seed, trial_index) stream, and its own round counter in
// the engine. Every sweep steps all occupied lanes by one round; a lane
// whose trial completes (or exhausts the round budget) retires immediately
// and is refilled from the queue WITHOUT waiting for its batch-mates — the
// sweep never stalls on a straggler. When the queue is dry and occupancy
// drops below half, the scheduler compacts surviving lanes into the lowest
// slots so the engine's lane-word stride shrinks with the tail.
//
// Determinism contract: trial t's result equals broadcast_with(factory(t),
// ctx, g, source, Rng::for_stream(seed, first_stream + t), max_rounds)
// byte-for-byte, for ANY lane count — lane packing affects wall time only.
// tests/analysis/test_batch_determinism.cpp pins this.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sim/batch/batch_engine.hpp"
#include "sim/protocol.hpp"
#include "sim/runner.hpp"

namespace radio {

/// Builds the protocol instance for one trial. Called once per trial, from
/// the thread running that trial's scheduler; the factory must be safe to
/// invoke concurrently from parallel schedulers.
using ProtocolFactory = std::function<std::unique_ptr<Protocol>(int trial)>;

class BatchScheduler {
 public:
  /// `lanes` >= 1; a scheduler is reusable across run() calls.
  BatchScheduler(const Graph& g, const ProtocolContext& ctx,
                 std::uint32_t lanes, std::uint32_t max_rounds);

  /// Runs trials [0, trials) from `source`, trial t drawing from
  /// Rng::for_stream(seed, first_stream + t), and returns their
  /// BroadcastRuns in trial order.
  std::vector<BroadcastRun> run(std::uint64_t seed, std::uint64_t first_stream,
                                int trials, NodeId source,
                                const ProtocolFactory& factory);

  /// Lane compactions performed by the most recent run() (tests).
  std::uint32_t compactions() const noexcept { return compactions_; }

  /// Push and pull steps of the most recent run()'s engine.
  const BatchFoldCounts& fold_counts() const noexcept { return folds_; }

 private:
  struct Lane {
    int trial = -1;  ///< -1: empty
    std::unique_ptr<Protocol> protocol;
    Rng rng;
    BroadcastRun partial;
  };

  void start_trial(std::uint32_t lane, int trial, std::uint64_t seed,
                   std::uint64_t first_stream, NodeId source,
                   const ProtocolFactory& factory);

  const Graph* graph_;
  ProtocolContext ctx_;
  std::uint32_t requested_lanes_;
  std::uint32_t max_rounds_;
  std::uint32_t compactions_ = 0;
  BatchFoldCounts folds_;
  std::unique_ptr<BatchEngine> engine_;
  std::vector<Lane> lanes_;
  std::vector<std::uint32_t> active_;
  std::vector<NodeId> tx_buffer_;
};

}  // namespace radio
