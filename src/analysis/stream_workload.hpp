// Streaming-workload driver shared by E16/E17: run_stream_trial draws a
// fresh connected G(n,p) instance, builds a StreamingProtocol from the
// caller's factory, and runs a StreamSession over it (exact collision
// counting). E18 drives BasicStreamSession<ImplicitGnp> directly, through the
// same session code.
#pragma once

#include <functional>
#include <memory>

#include "analysis/workload.hpp"
#include "sim/stream/stream_session.hpp"

namespace radio {

/// Fresh StreamingProtocol per trial (its slots are stateful across rounds).
using StreamProtocolFactory =
    std::function<std::unique_ptr<StreamingProtocol>()>;

/// One streaming trial: draws a connected instance from `rng`,
/// builds the protocol, and runs a StreamSession with
/// StreamConfig{rate, horizon, seed, stream}.
StreamMetrics run_stream_trial(const GnpParams& params,
                               GraphBackendChoice backend,
                               const StreamProtocolFactory& make_protocol,
                               double rate, std::uint32_t horizon,
                               std::uint64_t seed, std::uint64_t stream,
                               Rng& rng);

}  // namespace radio
