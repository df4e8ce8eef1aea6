// Broadcast session state: which nodes are informed, when each learned the
// message, and per-round statistics. One session == one broadcast attempt on
// one graph instance from one source.
//
// Generic over the GraphBackend: the channel rule lives in RoundResolver
// (sim/round_resolver.hpp), which folds transmitters on any backend, so the
// same session drives the materialized Graph (BroadcastSession) and the
// on-demand ImplicitGnp sampler alike.
//
// Optional extras (both off by default, costing nothing when unused):
//   * fault injection (sim/faults.hpp): crashed nodes are silently dropped
//     from every transmitter set and can never receive; lossy links drop
//     deliveries at the configured rate; completion means "all SURVIVING
//     nodes informed";
//   * channel observations: per-node silence/message/collision feedback for
//     the collision-detection model extension.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "graph/backend.hpp"
#include "graph/graph.hpp"
#include "sim/faults.hpp"
#include "sim/round_resolver.hpp"
#include "sim/round_stats.hpp"
#include "sim/session_view.hpp"
#include "util/assert.hpp"
#include "util/bitset.hpp"

namespace radio {

template <GraphBackend G>
class BasicBroadcastSession {
 public:
  /// Starts a broadcast of one message held by `source` at round 0.
  /// The session keeps a reference to `g`: the graph must outlive it
  /// (do not pass a temporary).
  BasicBroadcastSession(const G& g, NodeId source)
      : BasicBroadcastSession(g, source, SessionFaults{}) {}

  /// Fault-injected session. The source must not be crashed.
  BasicBroadcastSession(const G& g, NodeId source, SessionFaults faults)
      : graph_(&g),
        resolver_(g.num_nodes()),
        source_(source),
        faults_(std::move(faults)),
        loss_rng_(faults_.seed),
        informed_(g.num_nodes()),
        informed_round_(g.num_nodes(), kUnreachable) {
    RADIO_EXPECTS(source < g.num_nodes());
    RADIO_EXPECTS(faults_.crashed.size() == 0 ||
                  faults_.crashed.size() == g.num_nodes());
    RADIO_EXPECTS(faults_.loss >= 0.0 && faults_.loss < 1.0);
    RADIO_EXPECTS(!crashed(source));
    informed_.set(source);
    informed_round_[source] = 0;
    informed_count_ = 1;
    alive_count_ = g.num_nodes() -
                   (faults_.crashed.size() > 0 ? faults_.crashed.count() : 0);
  }

  /// Multi-source session: the SAME message is injected at several nodes at
  /// round 0 (k emergency sirens announcing one alert). `sources` must be
  /// non-empty, distinct, and free of crashed nodes; source() reports the
  /// first one.
  BasicBroadcastSession(const G& g, std::span<const NodeId> sources,
                        SessionFaults faults = {})
      : BasicBroadcastSession(g, first_source(sources), std::move(faults)) {
    for (NodeId s : sources) {
      RADIO_EXPECTS(s < g.num_nodes());
      RADIO_EXPECTS(!crashed(s));
      if (informed_.set_if_clear(s)) {
        informed_round_[s] = 0;
        ++informed_count_;
      }
    }
  }

  const G& graph() const noexcept { return *graph_; }
  NodeId source() const noexcept { return source_; }

  bool informed(NodeId v) const noexcept { return informed_.test(v); }

  /// Round in which v became informed; kUnreachable if still uninformed.
  /// The source is informed at round 0.
  std::uint32_t informed_round(NodeId v) const noexcept {
    return informed_round_[v];
  }

  /// The whole informed-round array (SessionView's backing span).
  std::span<const std::uint32_t> informed_rounds() const noexcept {
    return informed_round_;
  }

  std::size_t informed_count() const noexcept { return informed_count_; }

  /// Number of nodes that can still participate (n minus crashes).
  std::size_t alive_count() const noexcept { return alive_count_; }

  bool crashed(NodeId v) const noexcept {
    return faults_.crashed.size() > 0 && faults_.crashed.test(v);
  }

  /// Complete == every surviving node informed.
  bool complete() const noexcept { return informed_count_ == alive_count_; }

  /// Rounds executed so far.
  std::uint32_t current_round() const noexcept {
    return static_cast<std::uint32_t>(history_.size());
  }

  /// The protocol-facing view (implicit: sessions are handed straight to
  /// Protocol::select_transmitters).
  operator SessionView() const noexcept {
    return SessionView(*graph_, informed_, informed_round_, informed_count_);
  }

  /// Enables per-node channel observations (collision-detection extension).
  void enable_observations() {
    observations_.assign(graph_->num_nodes(), ChannelObservation::kSilence);
  }

  /// Valid after a step() when observations are enabled.
  std::span<const ChannelObservation> last_observations() const noexcept {
    return observations_;
  }

  /// Executes one round with the given transmitter set and records stats.
  /// Crashed transmitters are dropped silently (their radio is off).
  const RoundStats& step(std::span<const NodeId> transmitters) {
    // Crashed nodes have no radio: drop them before the channel sees anything.
    std::span<const NodeId> effective = transmitters;
    if (faults_.crashed.size() > 0) {
      filtered_transmitters_.clear();
      for (NodeId t : transmitters)
        if (!faults_.crashed.test(t)) filtered_transmitters_.push_back(t);
      effective = filtered_transmitters_;
    }

    resolver_.fold(*graph_, effective);
    const auto round = static_cast<std::uint32_t>(history_.size() + 1);
    std::uint32_t delivered = 0;
    const RoundResolver::Outcome outcome =
        resolver_.deliver(*graph_, informed_, [&](NodeId w) {
          if (crashed(w)) return;  // dead receiver
          if (faults_.loss > 0.0 && loss_rng_.bernoulli(faults_.loss)) {
            ++lost_deliveries_;
            return;
          }
          informed_.set(w);
          informed_round_[w] = round;
          ++delivered;
        });
    informed_count_ += delivered;
    if (!observations_.empty()) resolver_.observe(observations_);

    RoundStats stats;
    stats.round = round;
    stats.transmitters = static_cast<std::uint32_t>(effective.size());
    stats.newly_informed = delivered;
    stats.collisions = outcome.collisions;
    stats.wasted = outcome.redundant;
    stats.informed_total = informed_count_;
    stats.dense_kernel = resolver_.path() == RoundPath::kDense;
    history_.push_back(stats);
    return history_.back();
  }

  /// All informed node ids, ascending.
  std::vector<NodeId> informed_nodes() const {
    std::vector<NodeId> out;
    out.reserve(informed_count_);
    informed_.collect(out);
    return out;
  }

  /// All surviving uninformed node ids, ascending.
  std::vector<NodeId> uninformed_nodes() const {
    std::vector<NodeId> out;
    out.reserve(alive_count_ - informed_count_);
    for (NodeId v = 0; v < graph_->num_nodes(); ++v)
      if (!informed_.test(v) && !crashed(v)) out.push_back(v);
    return out;
  }

  const Bitset& informed_set() const noexcept { return informed_; }
  const std::vector<RoundStats>& history() const noexcept { return history_; }

  /// Total collision events over the whole session.
  std::uint64_t total_collisions() const noexcept {
    std::uint64_t total = 0;
    for (const RoundStats& s : history_) total += s.collisions;
    return total;
  }

  /// Deliveries dropped by the loss fault model so far.
  std::uint64_t lost_deliveries() const noexcept { return lost_deliveries_; }

 private:
  static NodeId first_source(std::span<const NodeId> sources) {
    RADIO_EXPECTS(!sources.empty());
    return sources.front();
  }

  const G* graph_;
  RoundResolver resolver_;
  NodeId source_;
  SessionFaults faults_;
  Rng loss_rng_;
  Bitset informed_;
  std::vector<std::uint32_t> informed_round_;
  std::size_t informed_count_ = 0;
  std::size_t alive_count_ = 0;
  std::uint64_t lost_deliveries_ = 0;
  std::vector<RoundStats> history_;
  std::vector<NodeId> filtered_transmitters_;
  std::vector<ChannelObservation> observations_;  ///< empty unless enabled
};

/// The session over the materialized graph — what every experiment, the
/// runners and the schedule player use.
using BroadcastSession = BasicBroadcastSession<Graph>;

extern template class BasicBroadcastSession<Graph>;

}  // namespace radio
