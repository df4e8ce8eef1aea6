// Graph-generation microbenchmark: edges/sec of every G(n,p) production
// path, plus generation time vs n for the implicit backend's index build.
//
// Three axes matter after the giant-n refactor:
//   * BM_GenerateCsr — the geometric-skip sparse sampler into a CSR Graph
//     (the legacy default path, now running on the overflow-proof walk) at
//     E2's dense p, plus BM_GenerateCsrSparse at d = ln² n, the density the
//     auto cost model actually serves from CSR;
//   * BM_GenerateBitmap — the word-parallel BernoulliWordGen bitmap
//     generator the auto cost model picks for dense rows (p >= 1/64 with a
//     fitting bitmap);
//   * BM_ImplicitIndex — ImplicitGnp construction + full index build, the
//     one-off cost an experiment pays before on-demand neighbor queries are
//     O(1). Swept over n at fixed expected degree so bench_report.py can
//     fold generation time vs n into the BENCH_run.json trajectory.
//
// scripts/bench_report.py folds the JSON output of
//   bench/bench_graph_gen --benchmark_format=json
// into BENCH_run.json (graph_gen entry: edges/sec per path).
#include <benchmark/benchmark.h>

#include <cmath>

#include "graph/implicit_gnp.hpp"
#include "graph/random_graph.hpp"

namespace {

constexpr std::uint64_t kSeed = 20260808;

// Dense row from E2's quick grid: n = 2^13, d = n^0.75.
constexpr radio::NodeId kDenseN = 1 << 13;

double dense_p() {
  return std::pow(static_cast<double>(kDenseN), 0.75) /
         static_cast<double>(kDenseN - 1);
}

// Times one materialized generator: a fresh G(n, p) per iteration from one
// running Rng, reporting edges/sec of the last instance.
void time_generation(benchmark::State& state, const radio::GnpParams& params,
                     radio::GraphBackendChoice choice) {
  radio::Rng rng(kSeed);
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const radio::Graph g = radio::generate_gnp_backend(params, rng, choice);
    edges = g.num_edges();
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges_per_s"] = benchmark::Counter(
      static_cast<double>(edges), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_GenerateCsr(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  time_generation(state, {n, dense_p()}, radio::GraphBackendChoice::kCsr);
}
BENCHMARK(BM_GenerateCsr)->Arg(kDenseN)->Unit(benchmark::kMillisecond);

// The regime the auto cost model actually sends to CSR: d = ln² n at the
// gnp_sparse / E3 sizes, where sampling plus the ordered CSR placement is
// the whole per-trial generation cost.
void BM_GenerateCsrSparse(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  const double ln_n = std::log(static_cast<double>(n));
  time_generation(state, radio::GnpParams::with_degree(n, ln_n * ln_n),
                  radio::GraphBackendChoice::kCsr);
}
BENCHMARK(BM_GenerateCsrSparse)
    ->Arg(1 << 13)
    ->Arg(1 << 14)
    ->Arg(1 << 15)
    ->Unit(benchmark::kMillisecond);

void BM_GenerateBitmap(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  time_generation(state, {n, dense_p()}, radio::GraphBackendChoice::kBitmap);
}
BENCHMARK(BM_GenerateBitmap)->Arg(kDenseN)->Unit(benchmark::kMillisecond);

// Generation time vs n at fixed d = 3 ln n (the giant-n smoke's density):
// each iteration builds a fresh ImplicitGnp and forces the full index, so
// the per-iteration time IS the generation cost the E2 implicit mode pays.
void BM_ImplicitIndex(benchmark::State& state) {
  const auto n = static_cast<radio::NodeId>(state.range(0));
  const double d = 3.0 * std::log(static_cast<double>(n));
  const radio::GnpParams params = radio::GnpParams::with_degree(n, d);
  std::uint64_t seed = kSeed;
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const radio::ImplicitGnp g(n, params.p, seed++);
    edges = g.num_edges();  // forces the index build
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges_per_s"] = benchmark::Counter(
      static_cast<double>(edges), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ImplicitIndex)
    ->Arg(1 << 13)
    ->Arg(1 << 16)
    ->Arg(1 << 19)
    ->Arg(1 << 22)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
