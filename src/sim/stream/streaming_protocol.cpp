#include "sim/stream/streaming_protocol.hpp"

#include <utility>

#include "util/assert.hpp"

namespace radio {

StreamingProtocol::StreamingProtocol(std::string label, std::uint32_t depth,
                                     SlotProtocolFactory factory)
    : label_(std::move(label)), depth_(depth), factory_(std::move(factory)) {
  RADIO_EXPECTS(depth_ >= 1);
  RADIO_EXPECTS(factory_ != nullptr);
}

void StreamingProtocol::reset(const ProtocolContext& ctx) {
  ctx_ = ctx;
  slots_.clear();
  slots_.reserve(depth_);
  for (std::uint32_t s = 0; s < depth_; ++s) {
    slots_.push_back(factory_());
    RADIO_EXPECTS(slots_.back() != nullptr);
    // The stream loop never feeds observations; an observation-dependent
    // protocol would silently degrade rather than misbehave loudly.
    RADIO_EXPECTS(!slots_.back()->wants_observations());
  }
}

void StreamingProtocol::on_message_start(std::uint32_t slot) {
  RADIO_EXPECTS(slot < slots_.size());
  slots_[slot]->reset(ctx_);
}

void StreamingProtocol::select_transmitters(std::uint32_t slot,
                                            std::uint32_t local_round,
                                            const SessionView& view, Rng& rng,
                                            std::vector<NodeId>& out) {
  RADIO_EXPECTS(slot < slots_.size());
  slots_[slot]->select_transmitters(local_round, view, rng, out);
}

}  // namespace radio
