#include "sim/batch/batch_scheduler.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace radio {

BatchScheduler::BatchScheduler(const Graph& g, const ProtocolContext& ctx,
                               std::uint32_t lanes, std::uint32_t max_rounds)
    : graph_(&g),
      ctx_(ctx),
      requested_lanes_(lanes),
      max_rounds_(max_rounds) {
  RADIO_EXPECTS(lanes >= 1);
  RADIO_EXPECTS(max_rounds > 0);
}

void BatchScheduler::start_trial(std::uint32_t lane, int trial,
                                 std::uint64_t seed,
                                 std::uint64_t first_stream, NodeId source,
                                 const ProtocolFactory& factory) {
  Lane& slot = lanes_[lane];
  slot.trial = trial;
  slot.protocol = factory(trial);
  RADIO_EXPECTS(slot.protocol != nullptr);
  // Observation feedback needs per-node channel state the batch planes do
  // not track; the dispatch layer (batch_runner) routes such protocols to
  // the per-instance path before a scheduler ever sees them.
  RADIO_EXPECTS(!slot.protocol->wants_observations());
  slot.rng =
      Rng::for_stream(seed, first_stream + static_cast<std::uint64_t>(trial));
  slot.partial = BroadcastRun{};
  slot.protocol->reset(ctx_);
  engine_->open_lane(lane, source);
}

std::vector<BroadcastRun> BatchScheduler::run(std::uint64_t seed,
                                              std::uint64_t first_stream,
                                              int trials, NodeId source,
                                              const ProtocolFactory& factory) {
  RADIO_EXPECTS(trials >= 0);
  std::vector<BroadcastRun> results(static_cast<std::size_t>(trials));
  if (trials == 0) return results;

  const auto lane_count = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      requested_lanes_, static_cast<std::uint64_t>(trials)));
  engine_ = std::make_unique<BatchEngine>(*graph_, lane_count);
  lanes_.clear();
  lanes_.resize(lane_count);
  compactions_ = 0;

  int next_trial = 0;
  int in_flight = 0;
  for (std::uint32_t lane = 0; lane < lane_count && next_trial < trials;
       ++lane) {
    start_trial(lane, next_trial++, seed, first_stream, source, factory);
    ++in_flight;
  }

  while (in_flight > 0) {
    // Retire finished trials and refill their lanes from the queue — a lane
    // executes a round only while incomplete and under budget, exactly
    // run_protocol's loop condition per trial.
    for (std::uint32_t lane = 0; lane < engine_->lane_count(); ++lane) {
      Lane& slot = lanes_[lane];
      while (slot.trial >= 0 && (engine_->complete(lane) ||
                                 slot.partial.rounds >= max_rounds_)) {
        slot.partial.completed = engine_->complete(lane);
        slot.partial.informed = engine_->informed_count(lane);
        results[static_cast<std::size_t>(slot.trial)] = slot.partial;
        slot.trial = -1;
        slot.protocol.reset();
        --in_flight;
        if (next_trial >= trials) break;
        start_trial(lane, next_trial++, seed, first_stream, source, factory);
        ++in_flight;
      }
    }
    if (in_flight == 0) break;

    // Queue dry and the batch mostly retired: remap survivors to the lowest
    // slots when that shrinks the engine's lane-word stride (and with it the
    // per-word cost of every remaining sweep).
    if (next_trial >= trials &&
        static_cast<std::uint32_t>(in_flight) <= engine_->lane_count() / 2 &&
        words_for_bits(static_cast<std::size_t>(in_flight)) <
            engine_->lane_words()) {
      std::vector<std::uint32_t> survivors;
      survivors.reserve(static_cast<std::size_t>(in_flight));
      for (std::uint32_t lane = 0; lane < engine_->lane_count(); ++lane)
        if (lanes_[lane].trial >= 0) survivors.push_back(lane);
      engine_->compact(survivors);
      std::vector<Lane> packed(survivors.size());
      for (std::size_t i = 0; i < survivors.size(); ++i)
        packed[i] = std::move(lanes_[survivors[i]]);
      lanes_ = std::move(packed);
      ++compactions_;
    }

    // Select transmitters lane by lane, each from its own stream against its
    // own knowledge view, then advance every occupied lane in one sweep.
    active_.clear();
    for (std::uint32_t lane = 0; lane < engine_->lane_count(); ++lane) {
      if (lanes_[lane].trial < 0) continue;
      active_.push_back(lane);
      tx_buffer_.clear();
      lanes_[lane].protocol->select_transmitters(
          engine_->round(lane) + 1, engine_->view(lane), lanes_[lane].rng,
          tx_buffer_);
      engine_->add_transmitters(lane, tx_buffer_);
      lanes_[lane].partial.transmissions += tx_buffer_.size();
    }
    engine_->step(active_);
    for (std::uint32_t lane : active_) {
      const BatchEngine::LaneOutcome& o = engine_->outcome(lane);
      ++lanes_[lane].partial.rounds;
      lanes_[lane].partial.collisions += o.collisions;
    }
  }
  folds_ = engine_->fold_counts();
  engine_.reset();
  return results;
}

}  // namespace radio
