#include "graph/graph.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"
#include "util/bitset.hpp"

namespace radio {

Graph Graph::from_edges(NodeId n, std::span<const Edge> edges) {
  // Normalize to (min, max) orientation, reject self-loops, dedup.
  std::vector<Edge> normalized;
  normalized.reserve(edges.size());
  for (const Edge& e : edges) {
    RADIO_EXPECTS(e.u < n && e.v < n);
    RADIO_EXPECTS(e.u != e.v);
    normalized.push_back(e.u < e.v ? e : Edge{e.v, e.u});
  }
  std::sort(normalized.begin(), normalized.end(),
            [](const Edge& a, const Edge& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  normalized.erase(std::unique(normalized.begin(), normalized.end()),
                   normalized.end());
  // In (u, v) order a node's lower neighbors come from earlier blocks and its
  // upper ones from its own block, both ascending.
  return from_ordered_edges(n, normalized);
}

Graph Graph::from_ordered_edges(NodeId n, std::span<const Edge> edges) {
  std::vector<EdgeCount> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    RADIO_EXPECTS(e.u < e.v && e.v < n);
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  // Each row fills left to right in input order, so the caller's ordering
  // makes every row ascending; the check enforces that and rejects
  // duplicates.
  std::vector<NodeId> adj(static_cast<std::size_t>(offsets[n]));
  std::vector<EdgeCount> cursor(offsets.begin(), offsets.end() - 1);
  const auto place = [&](NodeId row, NodeId w) {
    EdgeCount& at = cursor[row];
    RADIO_EXPECTS(at == offsets[row] || adj[at - 1] < w);
    adj[at++] = w;
  };
  for (const Edge& e : edges) {
    place(e.u, e.v);
    place(e.v, e.u);
  }
  Graph g;
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
  return g;
}

Graph Graph::from_csr(std::vector<EdgeCount> offsets, std::vector<NodeId> adj) {
  RADIO_EXPECTS(!offsets.empty());
  RADIO_EXPECTS(offsets.front() == 0);
  RADIO_EXPECTS(offsets.back() == adj.size());
  Graph g;
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
  return g;
}

Graph Graph::from_bitmap(NodeId n, std::vector<std::uint64_t> words) {
  const std::size_t wpr = (static_cast<std::size_t>(n) + 63) / 64;
  RADIO_EXPECTS(words.size() == static_cast<std::size_t>(n) * wpr);
  std::vector<EdgeCount> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t* row = words.data() + static_cast<std::size_t>(v) * wpr;
    EdgeCount deg = 0;
    for (std::size_t k = 0; k < wpr; ++k)
      deg += static_cast<EdgeCount>(std::popcount(row[k]));
    offsets[v + 1] = offsets[v] + deg;
  }
  std::vector<NodeId> adj(static_cast<std::size_t>(offsets[n]));
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t* row = words.data() + static_cast<std::size_t>(v) * wpr;
    NodeId* out = adj.data() + offsets[v];
    for (std::size_t k = 0; k < wpr; ++k)
      for_each_set_bit(row[k], k * 64, [&](std::size_t w) {
        RADIO_EXPECTS(w != v);  // diagonal bit == self-loop
        *out++ = static_cast<NodeId>(w);
      });
  }
  Graph g;
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
  // Install the bitmap as the already-built adjacency cache: store the words
  // first, then fire the once_flag with a no-op so later adjacency_bitmap()
  // calls see a satisfied cache.
  g.bitmap_cache_->words = std::move(words);
  std::call_once(g.bitmap_cache_->once, [] {});
  return g;
}

std::span<const std::uint64_t> Graph::adjacency_bitmap() const {
  AdjacencyBitmapCache& cache = *bitmap_cache_;
  std::call_once(cache.once, [&] {
    const std::size_t wpr = bitmap_words_per_row();
    cache.words.assign(static_cast<std::size_t>(num_nodes()) * wpr, 0);
    for (NodeId v = 0; v < num_nodes(); ++v) {
      std::uint64_t* row = cache.words.data() + static_cast<std::size_t>(v) * wpr;
      for (NodeId w : neighbors(v))
        row[w >> 6] |= std::uint64_t{1} << (w & 63);
    }
  });
  return cache.words;
}

bool Graph::has_edge(NodeId u, NodeId v) const noexcept {
  if (u >= num_nodes() || v >= num_nodes()) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::edge_list() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges());
  for (NodeId u = 0; u < num_nodes(); ++u)
    for (NodeId v : neighbors(u))
      if (u < v) edges.push_back(Edge{u, v});
  return edges;
}

Graph::InducedSubgraph Graph::induced(std::span<const NodeId> nodes) const {
  std::vector<NodeId> new_id(num_nodes(), kInvalidNode);
  std::vector<NodeId> original(nodes.begin(), nodes.end());
  for (std::size_t i = 0; i < original.size(); ++i) {
    RADIO_EXPECTS(original[i] < num_nodes());
    RADIO_EXPECTS(new_id[original[i]] == kInvalidNode);  // no duplicates
    new_id[original[i]] = static_cast<NodeId>(i);
  }
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < original.size(); ++i)
    for (NodeId w : neighbors(original[i]))
      if (new_id[w] != kInvalidNode && original[i] < w)
        edges.push_back(Edge{static_cast<NodeId>(i), new_id[w]});
  InducedSubgraph result;
  result.graph = from_edges(static_cast<NodeId>(original.size()), edges);
  result.original_id = std::move(original);
  return result;
}

}  // namespace radio
