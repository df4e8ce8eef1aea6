// Immutable undirected graph in compressed sparse row (CSR) form.
//
// All simulator and algorithm code reads neighborhoods through spans over the
// CSR arrays; the structure is built once per trial and then shared read-only
// across any parallel analysis, which is what makes trial-level OpenMP
// parallelism safe. Adjacency lists are sorted, enabling O(log deg) edge
// queries and cache-friendly sequential sweeps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace radio {

/// The one memory cap for per-graph working sets: adjacency bitmaps are
/// never built above it (generation and the dense round fold, ≈1 GiB ⇒
/// n ≲ 92k), and batch lane state is clamped under it.
inline constexpr std::size_t kMemoryBudgetBytes = std::size_t{1} << 30;

class Graph {
 public:
  Graph() = default;

  /// Builds a simple undirected graph on `n` nodes from an edge list.
  /// Self-loops are rejected; duplicate edges (in either orientation) are
  /// collapsed. Endpoints must be < n.
  static Graph from_edges(NodeId n, std::span<const Edge> edges);

  /// Braced-list convenience (std::span has no initializer_list ctor in
  /// C++20): Graph::from_edges(3, {{0,1},{1,2}}).
  static Graph from_edges(NodeId n, std::initializer_list<Edge> edges) {
    return from_edges(n, std::span<const Edge>(edges.begin(), edges.size()));
  }

  /// Builds from distinct edges u < v < n listed so that every node's
  /// neighbors appear in ascending order across the input — both
  /// (u, v)-lexicographic and (v, u)-lexicographic order qualify. One count
  /// pass, a prefix sum and one placement pass: no copy, no sort. Order
  /// violations and duplicates fail a precondition check at placement.
  static Graph from_ordered_edges(NodeId n, std::span<const Edge> edges);

  /// Builds from pre-sorted, deduplicated per-node adjacency (internal fast
  /// path for generators that already produce both directions).
  static Graph from_csr(std::vector<EdgeCount> offsets, std::vector<NodeId> adj);

  /// Builds from a symmetric n × ⌈n/64⌉ adjacency bitmap (bit w of row v set
  /// iff {v, w} is an edge; no diagonal bits, tail bits ≥ n clear). The CSR
  /// arrays are decoded from the rows — bits come out ascending, so no sort —
  /// and the bitmap itself is installed as the pre-built adjacency cache,
  /// making the dense-round kernel free for graphs born dense
  /// (generate_gnp_bitmap). Requires words.size() == n · ⌈n/64⌉.
  static Graph from_bitmap(NodeId n, std::vector<std::uint64_t> words);

  NodeId num_nodes() const noexcept {
    return offsets_.empty() ? 0 : static_cast<NodeId>(offsets_.size() - 1);
  }

  /// Number of undirected edges.
  EdgeCount num_edges() const noexcept { return adj_.size() / 2; }

  /// Sorted neighbors of `v`.
  std::span<const NodeId> neighbors(NodeId v) const noexcept {
    return {adj_.data() + offsets_[v],
            static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
  }

  NodeId degree(NodeId v) const noexcept {
    return static_cast<NodeId>(offsets_[v + 1] - offsets_[v]);
  }

  /// O(log deg) membership test.
  bool has_edge(NodeId u, NodeId v) const noexcept;

  /// Recovers the undirected edge list (u < v), sorted lexicographically.
  std::vector<Edge> edge_list() const;

  /// Induced subgraph on `nodes` (need not be sorted; duplicates rejected).
  /// Returns the subgraph plus the mapping new-id -> old-id.
  struct InducedSubgraph;
  InducedSubgraph induced(std::span<const NodeId> nodes) const;

  // ---- adjacency bitmap (dense-round kernel substrate) --------------------
  // Row-major n × ⌈n/64⌉ bitmap: bit w of row v is set iff {v, w} is an edge.
  // Built lazily on first use (thread-safe; the graph stays shareable
  // read-only across parallel trials) and shared by copies of this Graph.
  // Costs bitmap_bytes(n) — callers gate it on kMemoryBudgetBytes before
  // opting in.

  /// Words per bitmap row (⌈n/64⌉).
  std::size_t bitmap_words_per_row() const noexcept {
    return (static_cast<std::size_t>(num_nodes()) + 63) / 64;
  }

  /// Memory an n-node bitmap occupies: n·⌈n/64⌉·8 bytes.
  static constexpr std::size_t bitmap_bytes(NodeId n) noexcept {
    const auto nodes = static_cast<std::size_t>(n);
    return nodes * ((nodes + 63) / 64) * sizeof(std::uint64_t);
  }

  /// The full bitmap, building it on first call. Row v occupies words
  /// [v·wpr, (v+1)·wpr).
  std::span<const std::uint64_t> adjacency_bitmap() const;

  /// One row of the bitmap (builds the cache on first call).
  std::span<const std::uint64_t> adjacency_row(NodeId v) const {
    const auto bitmap = adjacency_bitmap();
    const std::size_t wpr = bitmap_words_per_row();
    return bitmap.subspan(static_cast<std::size_t>(v) * wpr, wpr);
  }

 private:
  struct AdjacencyBitmapCache {
    std::once_flag once;
    std::vector<std::uint64_t> words;
  };

  std::vector<EdgeCount> offsets_;  ///< size n+1
  std::vector<NodeId> adj_;         ///< size 2m, sorted within each node
  /// Heap-allocated so Graph stays movable (once_flag is not); shared between
  /// copies, which is sound because adjacency is immutable after build.
  std::shared_ptr<AdjacencyBitmapCache> bitmap_cache_ =
      std::make_shared<AdjacencyBitmapCache>();
};

struct Graph::InducedSubgraph {
  Graph graph;
  std::vector<NodeId> original_id;  ///< new id -> original id
};

}  // namespace radio
