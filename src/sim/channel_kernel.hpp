// Cost model of the word-parallel dense-round fold (sim/round_resolver.hpp).
//
// The sparse fold costs O(Σ deg(t)) neighbor touches per round, which
// degenerates to O(n²) when d = pn is large — exactly the paper's dense
// regime (§3.1, E8). The dense fold instead ORs ⌈n/64⌉-word adjacency bitmap
// rows (Graph::adjacency_row) into the round's once/twice accumulators with
// the saturating 2-bit counter update
//
//     seen_twice |= seen_once & row(t);   seen_once |= row(t);
//
// Cost model (dense_round_pays): the sparse sweep touches Σ deg(t) adjacency
// entries with random writes; the kernel moves (|T| + c)·⌈n/64⌉ sequential
// words. Both folds are exact, so the choice is purely a performance
// decision and determinism is preserved regardless of which one runs.
#pragma once

#include <cstdint>
#include <span>

#include "graph/graph.hpp"

namespace radio {

/// Which execution path a round took (recorded into RoundStats).
enum class RoundPath : std::uint8_t {
  kSparse = 0,  ///< per-transmitter adjacency-list sweep
  kDense = 1,   ///< word-parallel bitmap kernel
};

/// Σ deg(t) over the transmitter set — the sparse path's exact work measure.
EdgeCount sum_transmitter_degrees(const Graph& g,
                                  std::span<const NodeId> transmitters) noexcept;

/// Cost model: true when the word-parallel kernel is expected to beat the
/// sparse sweep. `sum_deg` is Σ deg(t); the kernel moves roughly
/// (num_tx + 4)·⌈n/64⌉ words (accumulation plus the classification sweeps),
/// and one sequential word op is calibrated at ~2 random neighbor touches.
inline bool dense_round_pays(NodeId n, std::size_t num_tx,
                             EdgeCount sum_deg) noexcept {
  if (num_tx == 0 || Graph::bitmap_bytes(n) > kMemoryBudgetBytes) return false;
  const auto wpr = static_cast<EdgeCount>((static_cast<std::size_t>(n) + 63) / 64);
  return sum_deg > 2 * (static_cast<EdgeCount>(num_tx) + 4) * wpr;
}

}  // namespace radio
