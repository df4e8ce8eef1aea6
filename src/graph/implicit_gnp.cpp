#include "graph/implicit_gnp.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace radio {
namespace {

/// Appends fwd(v) — the geometric skip walk over targets v+1 … n-1 driven by
/// Rng::for_stream(seed, v) — to `out`. The walk is index arithmetic in
/// uint64 with every addition guarded by the remaining-candidate budget, the
/// same overflow discipline as sample_gnp_edges.
void append_forward_stream(NodeId n, double p, std::uint64_t seed, NodeId v,
                           std::vector<NodeId>& out) {
  if (p <= 0.0 || v + 1 >= n) return;
  const std::uint64_t span = static_cast<std::uint64_t>(n) - 1 - v;
  if (p >= 1.0) {
    for (std::uint64_t j = 0; j < span; ++j)
      out.push_back(static_cast<NodeId>(v + 1 + j));
    return;
  }
  Rng rng = Rng::for_stream(seed, v);
  const GeometricSkips skips(p);
  std::uint64_t offset = 0;  // candidates consumed so far
  while (true) {
    const std::uint64_t skip = skips(rng);
    if (skip >= span - offset) break;
    offset += skip;
    out.push_back(static_cast<NodeId>(v + 1 + offset));
    ++offset;
  }
}

}  // namespace

ImplicitGnp::ImplicitGnp(NodeId n, double p, std::uint64_t seed)
    : n_(n), p_(p), seed_(seed) {
  RADIO_EXPECTS(p >= 0.0 && p <= 1.0);
  RADIO_EXPECTS(n <= 0xFFFFFFFE);
}

std::vector<NodeId> ImplicitGnp::forward_neighbors(NodeId v) const {
  RADIO_EXPECTS(v < n_);
  std::vector<NodeId> out;
  append_forward_stream(n_, p_, seed_, v, out);
  return out;
}

bool ImplicitGnp::has_edge(NodeId u, NodeId v) const {
  if (u >= n_ || v >= n_ || u == v) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

void ImplicitGnp::ensure_index() const {
  Index& ix = *index_;
  std::call_once(ix.once, [&] {
    const NodeId n = n_;
    // Pass 1: stream every forward walk into a forward CSR (ascending v,
    // each run ascending by construction).
    std::vector<EdgeCount> foff(static_cast<std::size_t>(n) + 1, 0);
    std::vector<NodeId> fadj;
    const double expected = 0.5 * p_ * static_cast<double>(n) *
                            static_cast<double>(n > 0 ? n - 1 : 0);
    fadj.reserve(static_cast<std::size_t>(expected * 1.05) + 16);
    for (NodeId v = 0; v < n; ++v) {
      append_forward_stream(n, p_, seed_, v, fadj);
      foff[v + 1] = fadj.size();
    }
    // Pass 2: size the full rows — deg(v) = |fwd(v)| + |rev(v)|.
    ix.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
    for (NodeId v = 0; v < n; ++v)
      ix.offsets[v + 1] = foff[v + 1] - foff[v];
    for (NodeId w : fadj) ++ix.offsets[w + 1];
    for (std::size_t i = 1; i < ix.offsets.size(); ++i)
      ix.offsets[i] += ix.offsets[i - 1];
    // Pass 3: ordered placement. Processing u ascending, row u has already
    // received every rev entry (they come from streams < u, in ascending u),
    // so appending fwd(u) now keeps the row sorted; u is then scattered into
    // the later rows it points at. No comparison sort anywhere.
    ix.adj.resize(static_cast<std::size_t>(ix.offsets[n]));
    std::vector<EdgeCount> cursor(ix.offsets.begin(), ix.offsets.end() - 1);
    for (NodeId u = 0; u < n; ++u) {
      for (EdgeCount k = foff[u]; k < foff[u + 1]; ++k)
        ix.adj[cursor[u]++] = fadj[k];
      for (EdgeCount k = foff[u]; k < foff[u + 1]; ++k)
        ix.adj[cursor[fadj[k]]++] = u;
    }
  });
}

Graph ImplicitGnp::materialize() const {
  ensure_index();
  return Graph::from_csr(index_->offsets, index_->adj);
}

}  // namespace radio
