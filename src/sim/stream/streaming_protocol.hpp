// Multi-message protocol surface for streaming workloads.
//
// A StreamingProtocol serves a PIPELINE of concurrent broadcasts: wall-clock
// rounds are time-divided into `pipeline_depth()` interleaved slots, slot s
// owning every round r with (r - 1) % depth == s. Each slot carries at most
// one in-flight message, and only the owning slot's nodes transmit in a
// round — so messages in different slots can never collide with each other,
// by construction. This is the parity-phase machinery of the paper's
// Theorem 5 (even/odd phases share the channel by round parity) promoted to
// a generic depth-D time division; see DESIGN.md §9.
//
// It lifts any one-shot Protocol: one independent instance per slot, each
// replaying its message's broadcast under a LOCAL round counter (1, 2, …
// per message), so a protocol written for "round r of one broadcast" runs
// unmodified inside slot s at wall rounds s+1, s+1+D, s+1+2D, ….
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/protocol.hpp"

namespace radio {

/// Factory for the single-message protocol a slot runs.
using SlotProtocolFactory = std::function<std::unique_ptr<Protocol>()>;

/// A depth-D pipeline over one-shot Protocols, one instance per slot, reset
/// at each message start. The wrapped protocol must not want observations
/// (the stream loop feeds none).
class StreamingProtocol {
 public:
  StreamingProtocol(std::string label, std::uint32_t depth,
                    SlotProtocolFactory factory);

  std::string name() const { return label_; }

  /// Number of interleaved slots (>= 1); fixed for the session's lifetime.
  std::uint32_t pipeline_depth() const noexcept { return depth_; }

  /// Called once before the session's first round: builds the slots.
  void reset(const ProtocolContext& ctx);

  /// Called when `slot` adopts a fresh message (its previous one, if any,
  /// completed). The slot's per-message state starts over.
  void on_message_start(std::uint32_t slot);

  /// Appends slot `slot`'s transmitters for its message-local round
  /// `local_round` (1-based) to `out` (cleared by the caller). `view` is the
  /// per-node knowledge surface of THAT message's broadcast session.
  void select_transmitters(std::uint32_t slot, std::uint32_t local_round,
                           const SessionView& view, Rng& rng,
                           std::vector<NodeId>& out);

 private:
  std::string label_;
  std::uint32_t depth_;
  SlotProtocolFactory factory_;
  ProtocolContext ctx_{};
  std::vector<std::unique_ptr<Protocol>> slots_;
};

}  // namespace radio
