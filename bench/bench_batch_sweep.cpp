// Batch-sweep microbenchmark: trials/sec of the sim/batch instance-parallel
// core against the per-instance BroadcastSession path on ONE shared instance.
//
// Workload: the Decay (BGI) protocol broadcasting on a G(n, d/n) instance
// from E1's quick grid (n = 4096, d = ln² n — the paper's "well inside the
// Theorem 5 regime" density). Decay is flood-heavy: active nodes transmit in
// overlapping bursts, so the lanes' transmitter sets overlap strongly and
// the batched sweep amortizes one adjacency pass over all 64 lanes. Both
// paths run serially (run_broadcast_batch never spawns threads), so the
// counters compare kernels, not thread counts.
//
// The two paths must agree byte-for-byte (the sim/batch determinism
// contract): the benchmark verifies equality before timing and aborts with
// SkipWithError on any divergence — a fast benchmark that returns different
// results would be worse than useless.
//
// scripts/bench_report.py folds the JSON output of
//   bench/bench_batch_sweep --benchmark_format=json
// into BENCH_run.json (batch_sweep entry: trials/sec both ways + speedup).
#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "analysis/workload.hpp"
#include "protocols/decay.hpp"
#include "sim/batch/batch_runner.hpp"

namespace {

constexpr int kTrials = 64;
constexpr std::uint32_t kMaxRounds = 400;
constexpr std::uint64_t kSeed = 20240805;

struct SharedInstance {
  radio::BroadcastInstance instance;
  radio::ProtocolContext ctx;
  radio::NodeId source = 0;

  explicit SharedInstance(radio::NodeId n) {
    const double ln_n = std::log(static_cast<double>(n));
    const radio::GnpParams params =
        radio::GnpParams::with_degree(n, ln_n * ln_n);
    radio::Rng rng(kSeed);
    instance = radio::make_broadcast_instance(params, rng);
    ctx = radio::context_for(instance);
    source = radio::pick_source(instance.graph, rng);
  }
};

const SharedInstance& shared_instance(radio::NodeId n) {
  static std::map<radio::NodeId, SharedInstance> shared;
  auto it = shared.find(n);
  if (it == shared.end()) it = shared.emplace(n, SharedInstance(n)).first;
  return it->second;
}

radio::ProtocolFactory decay_factory() {
  return [](int) { return std::make_unique<radio::DecayProtocol>(); };
}

std::vector<radio::BroadcastRun> sweep(radio::NodeId n, std::uint32_t lanes) {
  const SharedInstance& s = shared_instance(n);
  return radio::run_broadcast_batch(s.instance.graph, s.ctx, s.source, kTrials,
                                    kSeed, /*first_stream=*/0, decay_factory(),
                                    kMaxRounds, lanes);
}

bool same_runs(const std::vector<radio::BroadcastRun>& a,
               const std::vector<radio::BroadcastRun>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].completed != b[i].completed || a[i].rounds != b[i].rounds ||
        a[i].collisions != b[i].collisions ||
        a[i].transmissions != b[i].transmissions ||
        a[i].informed != b[i].informed)
      return false;
  return true;
}

void BM_PerInstanceSweep(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  for (auto _ : state) {
    std::vector<radio::BroadcastRun> runs = sweep(n, /*lanes=*/1);
    benchmark::DoNotOptimize(runs.data());
  }
  state.counters["trials_per_s"] = benchmark::Counter(
      static_cast<double>(kTrials),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PerInstanceSweep)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Unit(benchmark::kMillisecond);

void BM_BatchSweep(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  const auto lanes = static_cast<std::uint32_t>(state.range(1));
  if (!same_runs(sweep(n, 1), sweep(n, lanes))) {
    state.SkipWithError("batched results diverge from per-instance results");
    return;
  }
  for (auto _ : state) {
    std::vector<radio::BroadcastRun> runs = sweep(n, lanes);
    benchmark::DoNotOptimize(runs.data());
  }
  state.counters["trials_per_s"] = benchmark::Counter(
      static_cast<double>(kTrials),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_BatchSweep)
    ->Args({1 << 12, 16})
    ->Args({1 << 12, 64})
    ->Args({1 << 14, 16})
    ->Args({1 << 14, 64})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
