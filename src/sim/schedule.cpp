#include "sim/schedule.hpp"

#include "util/assert.hpp"

namespace radio {

std::uint64_t Schedule::total_transmissions() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds) total += r.size();
  return total;
}

SchedulePlayback play_schedule(const Schedule& schedule,
                               BroadcastSession& session,
                               bool stop_when_complete) {
  SchedulePlayback playback;
  for (const auto& transmitters : schedule.rounds) {
    if (stop_when_complete && session.complete()) break;
    for (NodeId t : transmitters)
      if (!session.informed(t)) ++playback.protocol_violations;
    const RoundStats& stats = session.step(transmitters);
    playback.collisions += stats.collisions;
    ++playback.rounds_used;
  }
  playback.completed = session.complete();
  return playback;
}

bool schedule_is_legal(const Schedule& schedule, const Graph& graph,
                       NodeId source) {
  RADIO_EXPECTS(source < graph.num_nodes());
  BroadcastSession session(graph, source);
  for (const auto& transmitters : schedule.rounds) {
    for (NodeId t : transmitters)
      if (!session.informed(t)) return false;
    session.step(transmitters);
  }
  return true;
}

}  // namespace radio
