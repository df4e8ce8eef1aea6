#include "graph/random_graph.hpp"

#include <cmath>
#include <unordered_set>

#include "graph/components.hpp"
#include "util/assert.hpp"
#include "util/bitset.hpp"

namespace radio {
namespace {

/// T(v) = v(v-1)/2, the linear index of pair (0, v). v ≤ 2^32 keeps the
/// product below 2^64.
constexpr std::uint64_t triangle_start(std::uint64_t v) noexcept {
  return v * (v - 1) / 2;
}

/// Dense-regime sampler used when the adjacency bitmap would NOT fit
/// (n ≳ 92k with p > 1/2 — a Θ(n²)-edge output that is enormous either
/// way): draws the complement at rate 1-p, then emits every pair not in the
/// complement, in (u, v) order. Same draw sequence as the original
/// implementation, so every historical instance is unchanged.
Graph sample_dense_gnp_setfallback(NodeId n, double p, Rng& rng) {
  const std::vector<Edge> non_edges = sample_gnp_edges(n, 1.0 - p, rng);
  std::unordered_set<std::uint64_t> excluded;
  excluded.reserve(non_edges.size() * 2);
  for (const Edge& e : non_edges)
    excluded.insert((static_cast<std::uint64_t>(e.u) << 32) | e.v);
  std::vector<Edge> edges;
  const double expected =
      0.5 * p * static_cast<double>(n) * static_cast<double>(n - 1);
  edges.reserve(static_cast<std::size_t>(expected * 1.05) + 16);
  for (NodeId u = 0; u + 1 < n; ++u)
    for (NodeId v = u + 1; v < n; ++v)
      if (!excluded.count((static_cast<std::uint64_t>(u) << 32) | v))
        edges.push_back(Edge{u, v});
  return Graph::from_ordered_edges(n, edges);
}

/// Dense-regime sampler when the bitmap fits: same complement draw sequence
/// as the set-based path (identical instances for identical seeds), but the
/// complement is cleared out of an all-ones symmetric bitmap and the Graph
/// is decoded from it — no unordered_set, no O(n²) probe loop, no edge-list
/// sort.
Graph sample_dense_gnp_bitmap(NodeId n, double p, Rng& rng) {
  const std::vector<Edge> non_edges = sample_gnp_edges(n, 1.0 - p, rng);
  const std::size_t wpr = words_for_bits(n);
  std::vector<std::uint64_t> words(static_cast<std::size_t>(n) * wpr,
                                   ~std::uint64_t{0});
  // Clear the diagonal, the tail bits ≥ n of every row, then both mirrored
  // bits of every complement pair.
  const std::uint64_t tail_mask =
      (n & 63) ? (std::uint64_t{1} << (n & 63)) - 1 : ~std::uint64_t{0};
  for (NodeId v = 0; v < n; ++v) {
    std::uint64_t* row = words.data() + static_cast<std::size_t>(v) * wpr;
    row[wpr - 1] &= tail_mask;
    row[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
  }
  for (const Edge& e : non_edges) {
    words[static_cast<std::size_t>(e.u) * wpr + (e.v >> 6)] &=
        ~(std::uint64_t{1} << (e.v & 63));
    words[static_cast<std::size_t>(e.v) * wpr + (e.u >> 6)] &=
        ~(std::uint64_t{1} << (e.u & 63));
  }
  return Graph::from_bitmap(n, std::move(words));
}

}  // namespace

Edge pair_from_linear_index(std::uint64_t idx) noexcept {
  // v ≈ (1 + sqrt(1 + 8·idx)) / 2. 8·idx can reach ~7.4e19 > 2^64, so the
  // radicand lives in long double (64-bit mantissa ⇒ the error is a few
  // ulps); the integer walk below absorbs the rounding either way.
  const long double x = static_cast<long double>(idx);
  auto v = static_cast<std::uint64_t>((1.0L + sqrtl(1.0L + 8.0L * x)) * 0.5L);
  if (v < 1) v = 1;
  while (v > 1 && triangle_start(v) > idx) --v;
  while (triangle_start(v + 1) <= idx) ++v;
  return Edge{static_cast<NodeId>(idx - triangle_start(v)),
              static_cast<NodeId>(v)};
}

std::vector<Edge> sample_gnp_edges(NodeId n, double p, Rng& rng) {
  std::vector<Edge> edges;
  if (p <= 0.0 || n < 2) return edges;
  edges.reserve(static_cast<std::size_t>(
      0.5 * p * static_cast<double>(n) * static_cast<double>(n - 1) * 1.1));
  const std::uint64_t total_pairs = triangle_start(n);
  // Batagelj–Brandes walk in pure uint64 index space. `idx` is the next
  // candidate pair; the guard compares each skip against the REMAINING pair
  // budget before any addition, so idx never exceeds total_pairs and the
  // clamped ~9e18 skips of the tiny-p / near-cap-n regime cannot wrap
  // (total_pairs < 2^63 for every legal n, so total_pairs - idx never
  // underflows either). One geometric draw per emitted edge plus one final
  // overshooting draw — the same sequence as the historical int64 walk.
  const GeometricSkips skips(p);
  std::uint64_t idx = 0;
  std::uint64_t row = 1;              // row of the current candidate pair
  std::uint64_t row_start = 0;        // triangle_start(row)
  while (true) {
    const std::uint64_t skip = skips(rng);
    if (skip >= total_pairs - idx) break;  // skipped past the last pair
    idx += skip;
    if (idx - row_start >= row) {
      // Left the current row. Consecutive edges usually land a handful of
      // rows ahead, so walk forward a bounded number of steps; a giant skip
      // (tiny p at giant n) falls through to the O(1) sqrt decode instead of
      // the O(n) row walk the old implementation performed.
      int steps = 0;
      while (idx - row_start >= row && steps < 64) {
        row_start += row;
        ++row;
        ++steps;
      }
      if (idx - row_start >= row) {
        const Edge e = pair_from_linear_index(idx);
        row = e.v;
        row_start = triangle_start(row);
      }
    }
    edges.push_back(Edge{static_cast<NodeId>(idx - row_start),
                         static_cast<NodeId>(row)});
    ++idx;
  }
  return edges;
}

Graph generate_gnp(const GnpParams& params, Rng& rng) {
  RADIO_EXPECTS(params.p >= 0.0 && params.p <= 1.0);
  if (params.p > 0.5) {
    return Graph::bitmap_bytes(params.n) <= kMemoryBudgetBytes
               ? sample_dense_gnp_bitmap(params.n, params.p, rng)
               : sample_dense_gnp_setfallback(params.n, params.p, rng);
  }
  // The walk emits pairs in (v, u) order: a row gets its lower neighbors
  // while the walk is in it, then its upper ones from later rows.
  const std::vector<Edge> edges = sample_gnp_edges(params.n, params.p, rng);
  return Graph::from_ordered_edges(params.n, edges);
}

Graph generate_gnp_bitmap(const GnpParams& params, Rng& rng) {
  RADIO_EXPECTS(params.p >= 0.0 && params.p <= 1.0);
  const NodeId n = params.n;
  const std::size_t wpr = words_for_bits(n);
  std::vector<std::uint64_t> words(static_cast<std::size_t>(n) * wpr, 0);
  BernoulliWordGen gen(params.p, rng);
  // Draw the strict lower triangle row by row (row v holds columns < v),
  // then mirror each bit into the upper triangle. Draw order is
  // deterministic and independent of any later query order.
  for (NodeId v = 1; v < n; ++v) {
    std::uint64_t* row = words.data() + static_cast<std::size_t>(v) * wpr;
    const std::size_t row_words = words_for_bits(v);
    for (std::size_t k = 0; k < row_words; ++k) {
      std::uint64_t w = gen.next_word();
      if (k + 1 == row_words && (v & 63) != 0)
        w &= (std::uint64_t{1} << (v & 63)) - 1;
      row[k] = w;
    }
    for (std::size_t k = 0; k < row_words; ++k) {
      for_each_set_bit(row[k], k * 64, [&](std::size_t u) {
        words[u * wpr + (v >> 6)] |= std::uint64_t{1} << (v & 63);
      });
    }
  }
  return Graph::from_bitmap(n, std::move(words));
}

Graph generate_gnp_backend(const GnpParams& params, Rng& rng,
                           GraphBackendChoice choice) {
  const bool bitmap_fits =
      Graph::bitmap_bytes(params.n) <= kMemoryBudgetBytes;
  switch (choice) {
    case GraphBackendChoice::kCsr:
      return generate_gnp(params, rng);
    case GraphBackendChoice::kBitmap:
      return bitmap_fits ? generate_gnp_bitmap(params, rng)
                         : generate_gnp(params, rng);
    case GraphBackendChoice::kAuto:
    case GraphBackendChoice::kImplicit:
      break;
  }
  // Cost model: word-parallel generation moves ⌈n/64⌉ words per row at ~0.1
  // draws per pair; skip sampling pays one geometric (log) per edge plus a
  // linear counting placement. The p ≥ 1/64 threshold stays put: moving it
  // changes which generator, and so which draw sequence, serves an
  // instance, which would change every golden. Re-tuning it is a separate
  // change with its own measurements.
  return (bitmap_fits && params.p >= 1.0 / 64.0)
             ? generate_gnp_bitmap(params, rng)
             : generate_gnp(params, rng);
}

Graph generate_gnm(NodeId n, EdgeCount m, Rng& rng) {
  const auto total_pairs =
      static_cast<std::uint64_t>(n) * (static_cast<std::uint64_t>(n) - 1) / 2;
  RADIO_EXPECTS(m <= total_pairs);
  std::unordered_set<std::uint64_t> chosen;
  std::vector<Edge> edges;
  edges.reserve(m);
  // Rejection sampling of unordered pairs; each accepted pair is uniform over
  // all pairs, and the set keeps them distinct. Expected iterations stay
  // near m while m is at most half of all pairs; above that we take the
  // complement instead. The set only ever holds min(m, total_pairs - m)
  // entries, so reserve per branch — a blanket m*2 reserve allocated for m
  // entries on the complement branch that inserts only the holes.
  if (m <= total_pairs / 2 || total_pairs < 64) {
    chosen.reserve(static_cast<std::size_t>(m) * 2);
    while (edges.size() < m) {
      const auto a = static_cast<NodeId>(rng.uniform_below(n));
      const auto b = static_cast<NodeId>(rng.uniform_below(n));
      if (a == b) continue;
      const NodeId u = a < b ? a : b;
      const NodeId v = a < b ? b : a;
      const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
      if (chosen.insert(key).second) edges.push_back(Edge{u, v});
    }
  } else {
    const EdgeCount holes = total_pairs - m;
    chosen.reserve(static_cast<std::size_t>(holes) * 2);
    while (chosen.size() < holes) {
      const auto a = static_cast<NodeId>(rng.uniform_below(n));
      const auto b = static_cast<NodeId>(rng.uniform_below(n));
      if (a == b) continue;
      const NodeId u = a < b ? a : b;
      const NodeId v = a < b ? b : a;
      chosen.insert((static_cast<std::uint64_t>(u) << 32) | v);
    }
    for (NodeId u = 0; u + 1 < n; ++u)
      for (NodeId v = u + 1; v < n; ++v)
        if (!chosen.count((static_cast<std::uint64_t>(u) << 32) | v))
          edges.push_back(Edge{u, v});
  }
  return Graph::from_edges(n, edges);
}

std::optional<Graph> generate_connected_gnp(const GnpParams& params, Rng& rng,
                                            int max_attempts) {
  RADIO_EXPECTS(max_attempts > 0);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Graph g = generate_gnp(params, rng);
    if (g.num_nodes() <= 1 || is_connected(g)) return g;
  }
  return std::nullopt;
}

double connectivity_probability(NodeId n, double delta) noexcept {
  if (n < 2) return 1.0;
  const double p = delta * std::log(static_cast<double>(n)) /
                   static_cast<double>(n);
  return p > 1.0 ? 1.0 : p;
}

}  // namespace radio
