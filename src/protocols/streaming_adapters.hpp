// Streaming (pipelined multi-message) adapters for the one-shot protocols.
//
// Each factory wraps an existing Protocol in a StreamingProtocol
// (sim/stream/streaming_protocol.hpp): `depth` interleaved slots, one
// independent protocol instance per slot, messages never colliding across
// slots. Decay is the positive baseline — its per-message broadcast
// completes on G(n,p) w.h.p., so the pipeline sustains a positive
// throughput. Flooding is the negative one: all-informed-transmit wedges on
// collisions for non-trivial degree, the slot never retires its message,
// and the queue grows at the arrival rate — the shape E16's stability sweep
// is designed to expose.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/stream/streaming_protocol.hpp"

namespace radio {

/// Depth-`depth` pipelined Decay (BGI) streaming protocol.
std::unique_ptr<StreamingProtocol> make_pipelined_decay(
    std::uint32_t depth = 2);

/// Depth-`depth` pipelined flooding streaming protocol.
std::unique_ptr<StreamingProtocol> make_pipelined_flooding(
    std::uint32_t depth = 2);

}  // namespace radio
