// Broadcast schedules: the centralized model's artifact. A schedule fixes,
// for every round, exactly which nodes transmit; Theorem 5's algorithm is a
// schedule *builder*, and Theorem 6's adversary enumerates schedule families.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "sim/session.hpp"

namespace radio {

struct Schedule {
  /// rounds[t] = nodes transmitting in round t+1.
  std::vector<std::vector<NodeId>> rounds;

  /// Optional human-readable phase annotation: phase_of[t] labels round t+1.
  /// Sizes match `rounds` when present; empty when unused.
  std::vector<std::string> phase_of;

  std::size_t length() const noexcept { return rounds.size(); }

  /// Total transmissions across all rounds.
  std::uint64_t total_transmissions() const noexcept;
};

/// Outcome of playing a schedule against a session.
struct SchedulePlayback {
  bool completed = false;             ///< all nodes informed by the end
  std::uint32_t rounds_used = 0;      ///< rounds actually played (stops early on completion)
  std::uint64_t collisions = 0;       ///< total collision events
  std::uint32_t protocol_violations = 0;  ///< transmissions by uninformed nodes
};

/// Plays `schedule` on `session`, stopping as soon as the broadcast
/// completes. A transmission by a node not yet informed is legal channel
/// behaviour (it jams) but a violation of the broadcasting protocol; the
/// count is reported so tests can assert legality of built schedules.
SchedulePlayback play_schedule(const Schedule& schedule,
                               BroadcastSession& session,
                               bool stop_when_complete = true);

/// Checks that every transmitter is informed at the moment it transmits,
/// by dry-running the schedule on a fresh session over the same graph.
bool schedule_is_legal(const Schedule& schedule, const Graph& graph,
                       NodeId source);

}  // namespace radio
