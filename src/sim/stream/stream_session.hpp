// Sustained-traffic simulation: a radio network serving a Poisson stream of
// broadcast messages through a pipelined StreamingProtocol.
//
// One StreamSession == one long-lived service run on one graph instance.
// Per wall round r = 1 … horizon:
//
//   1. arrivals — PoissonArrivals draws k ~ Poisson(rate) new messages,
//      each at a uniform origin node, enqueued FIFO;
//   2. dispatch — the round's owning pipeline slot s = (r-1) % depth adopts
//      the oldest waiting message if it is idle (one BroadcastSession per
//      in-flight message, created here);
//   3. service — slot s advances its message by ONE local round: the
//      streaming protocol selects transmitters, the message's session
//      executes them (exact collision semantics, sim/round_resolver.hpp);
//   4. retire — if the message's broadcast completed (every node informed),
//      its latency (completion - arrival, queueing included) is recorded and
//      the slot goes idle.
//
// Only the owning slot transmits in a round, so concurrent messages never
// collide with each other (streaming_protocol.hpp). A message whose
// broadcast cannot complete (e.g. flooding wedged by collisions) occupies
// its slot forever — that shows up honestly as queue growth, which is
// exactly what E16's stability sweep measures.
//
// Determinism contract: all randomness comes from two session-owned
// generators derived via Rng::for_stream(seed, tag | stream) — one for
// arrivals, one for protocol coin flips, with disjoint tag bits so neither
// stream can collide with a plain trial stream. A StreamSession is a pure
// function of (graph, context, protocol, config): results are byte-identical
// across thread counts (which parallelize across sessions, never inside
// one); pinned by tests/analysis/test_stream_determinism.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/backend.hpp"
#include "sim/session.hpp"
#include "sim/stream/message_queue.hpp"
#include "sim/stream/streaming_protocol.hpp"
#include "util/assert.hpp"
#include "util/stream_tags.hpp"

namespace radio {

/// The session's two sub-stream tag bits live in the central registry
/// (util/stream_tags.hpp, compile-checked against every other tag in the
/// tree); re-exported here because the session is their primary consumer.
using stream_tags::kArrivalStreamTag;
using stream_tags::kProtocolStreamTag;

struct StreamConfig {
  double rate = 0.25;         ///< λ: expected message arrivals per round
  std::uint32_t horizon = 2000;  ///< wall rounds to simulate
  std::uint64_t seed = 42;
  std::uint64_t stream = 0;   ///< trial stream index (one session per trial)
  /// Queue-depth trajectory resolution: about this many evenly spaced
  /// samples over the horizon (at least 1; the final round is always
  /// sampled).
  std::uint32_t trajectory_samples = 8;
};

/// One (round, queue state) trajectory sample.
struct QueueSample {
  std::uint32_t round = 0;
  std::uint64_t waiting = 0;
  std::uint32_t in_flight = 0;

  bool operator==(const QueueSample&) const = default;
};

struct StreamMetrics {
  std::uint64_t enqueued = 0;
  std::uint64_t delivered = 0;
  std::uint64_t waiting_at_horizon = 0;
  std::uint64_t waiting_mid = 0;   ///< queue depth after round horizon/2
  std::uint64_t max_waiting = 0;
  std::uint32_t in_flight_at_horizon = 0;
  std::uint32_t rounds = 0;        ///< == config.horizon
  std::uint64_t transmissions = 0;
  /// Collision events summed over every message's broadcast session, on
  /// every backend.
  std::uint64_t collisions = 0;
  /// completion - arrival per delivered message, in delivery order.
  std::vector<std::uint32_t> latencies;
  std::vector<QueueSample> trajectory;

  /// Achieved throughput in messages per round.
  double throughput() const noexcept {
    return rounds == 0 ? 0.0
                       : static_cast<double>(delivered) /
                             static_cast<double>(rounds);
  }

  bool operator==(const StreamMetrics&) const = default;
};

/// Generic over the GraphBackend like the BroadcastSession it drives per
/// message; StreamSession is the materialized-Graph instantiation, and E18
/// streams on ImplicitGnp through the same code.
template <GraphBackend G>
class BasicStreamSession {
 public:
  /// The graph and protocol must outlive the session. `ctx.n` must equal
  /// `g.num_nodes()`.
  BasicStreamSession(const G& g, const ProtocolContext& ctx,
                     StreamingProtocol& protocol, const StreamConfig& config)
      : g_(&g), ctx_(ctx), protocol_(&protocol), config_(config) {
    RADIO_EXPECTS(ctx.n == g.num_nodes());
    RADIO_EXPECTS(ctx.n >= 2);
    RADIO_EXPECTS(config.rate >= 0.0);
    RADIO_EXPECTS(config.horizon >= 1);
  }

  /// Runs the full horizon. Single-use: a second call asserts.
  StreamMetrics run();

  /// The arrival ledger (conservation checks, per-message forensics).
  const MessageQueue& queue() const noexcept { return queue_; }

 private:
  struct Slot {
    std::unique_ptr<BasicBroadcastSession<G>> session;
    std::uint64_t message_id = 0;
    std::uint32_t local_round = 0;
    bool active = false;
  };

  const G* g_;
  ProtocolContext ctx_;
  StreamingProtocol* protocol_;
  StreamConfig config_;
  MessageQueue queue_;
  bool ran_ = false;
};

template <GraphBackend G>
StreamMetrics BasicStreamSession<G>::run() {
  RADIO_EXPECTS(!ran_);
  ran_ = true;

  protocol_->reset(ctx_);
  const std::uint32_t depth = protocol_->pipeline_depth();
  RADIO_EXPECTS(depth >= 1);
  std::vector<Slot> slots(depth);

  PoissonArrivals arrivals(
      config_.rate, ctx_.n,
      Rng::for_stream(config_.seed, kArrivalStreamTag | config_.stream));
  Rng protocol_rng =
      Rng::for_stream(config_.seed, kProtocolStreamTag | config_.stream);

  StreamMetrics metrics;
  metrics.rounds = config_.horizon;
  const std::uint32_t mid = config_.horizon / 2;
  const std::uint32_t stride =
      std::max<std::uint32_t>(1, config_.horizon /
                                     std::max<std::uint32_t>(
                                         1, config_.trajectory_samples));

  std::vector<NodeId> origins;
  std::vector<NodeId> transmitters;
  for (std::uint32_t r = 1; r <= config_.horizon; ++r) {
    // 1. Arrivals.
    origins.clear();
    arrivals.draw(origins);
    for (const NodeId origin : origins) queue_.enqueue(origin, r);

    // 2. Dispatch into the round's owning slot.
    const std::uint32_t s = (r - 1) % depth;
    Slot& slot = slots[s];
    if (!slot.active && queue_.has_waiting()) {
      slot.message_id = queue_.start_next(r);
      slot.session = std::make_unique<BasicBroadcastSession<G>>(
          *g_, queue_.message(slot.message_id).origin);
      slot.local_round = 0;
      slot.active = true;
      protocol_->on_message_start(s);
    }

    // 3. Service one local round of the slot's message.
    if (slot.active) {
      ++slot.local_round;
      transmitters.clear();
      protocol_->select_transmitters(s, slot.local_round, *slot.session,
                                     protocol_rng, transmitters);
      slot.session->step(transmitters);
      metrics.transmissions += transmitters.size();

      // 4. Retire on completion.
      if (slot.session->complete()) {
        queue_.mark_delivered(slot.message_id, r);
        const StreamMessage& m = queue_.message(slot.message_id);
        metrics.latencies.push_back(r - m.arrival_round);
        metrics.collisions += slot.session->total_collisions();
        slot.session.reset();
        slot.active = false;
      }
    }

    metrics.max_waiting =
        std::max<std::uint64_t>(metrics.max_waiting, queue_.waiting());
    if (r == mid) metrics.waiting_mid = queue_.waiting();
    if (r % stride == 0 || r == config_.horizon)
      metrics.trajectory.push_back(
          QueueSample{r, queue_.waiting(),
                      static_cast<std::uint32_t>(queue_.in_flight())});
  }

  for (const Slot& slot : slots)
    if (slot.active) metrics.collisions += slot.session->total_collisions();

  metrics.enqueued = queue_.total_enqueued();
  metrics.delivered = queue_.delivered();
  metrics.waiting_at_horizon = queue_.waiting();
  metrics.in_flight_at_horizon =
      static_cast<std::uint32_t>(queue_.in_flight());
  return metrics;
}

using StreamSession = BasicStreamSession<Graph>;

extern template class BasicStreamSession<Graph>;

}  // namespace radio
