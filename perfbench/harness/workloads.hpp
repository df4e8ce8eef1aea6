// The benchmark's four workloads, driven through the library's public API.
//
// Every workload is a closed loop with one client: a pass is a fixed list
// of trials derived from the run seed, each trial starting when the previous
// one ends, and every pass of a run replays the same list. An untraced pass
// calls the library's own drivers (broadcast_with, play_schedule,
// run_broadcast_batch, StreamSession::run); a traced pass replaces each
// driver with a round-by-round mirror that opens a span around every call
// into a library layer. Both kinds of pass fold the same per-trial results
// into the same digest, so a digest mismatch means a mirror has drifted from
// the library.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Deterministic per-layer work counts, filled by traced passes only.
struct Counters {
  std::uint64_t gen_edges = 0;        ///< edges of the generated graphs
  std::uint64_t redraws = 0;          ///< resampled + giant-component instances
  std::uint64_t schedule_rounds = 0;  ///< Thm-5 schedule length
  std::uint64_t schedule_tx = 0;      ///< Thm-5 scheduled transmissions
  std::uint64_t select_calls = 0;     ///< select_transmitters invocations
  std::uint64_t selected = 0;         ///< transmitters the protocols chose
  std::uint64_t sim_rounds = 0;       ///< BroadcastSession::step calls
  std::uint64_t dense_rounds = 0;     ///< ...that took the word-parallel path
  std::uint64_t collisions = 0;
  std::uint64_t newly_informed = 0;
  std::uint64_t wasted = 0;           ///< informed listeners hearing again
  std::uint64_t tx_degree_sum = 0;    ///< computed: sum of deg(t) per round
  std::uint64_t batch_steps = 0;      ///< BatchEngine::step calls
  std::uint64_t batch_lane_steps = 0; ///< active lanes summed over steps
  std::uint64_t batch_lane_slots = 0; ///< engine lanes summed over steps
  std::uint64_t dispatch_lanes = 0;   ///< plan_broadcast_batch lane width
  std::uint64_t stream_rounds = 0;    ///< stream wall rounds
  std::uint64_t stream_tx = 0;
  std::uint64_t stream_delivered = 0;
};

/// What one pass (or one set-up) produced.
struct PassResult {
  std::uint64_t trials = 0;
  std::uint64_t failed = 0;
  std::uint64_t sim_rounds = 0;       ///< simulated rounds (lane-rounds in a batch)
  std::uint64_t digest = 0;
  std::vector<double> trial_ms;       ///< one latency sample per trial or call
  std::vector<std::string> failures;  ///< first few failure descriptions
};

/// Per-pass recording context handed to a workload.
class Pass {
 public:
  Pass(Tracer& tracer, Counters& counters)
      : tracer_(tracer), counters_(counters) {}

  bool traced() const { return tracer_.on(); }
  Tracer& tracer() { return tracer_; }
  Counters& counters() { return counters_; }
  PassResult& result() { return result_; }

  void digest(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFu;
      hash_ *= 1099511628211ULL;
    }
  }
  /// Records a failed check of the current trial.
  void fail(const std::string& what) {
    trial_ok_ = false;
    if (result_.failures.size() < 8) result_.failures.push_back(what);
  }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  void begin_trial() { trial_ok_ = true; }
  void end_trial() {
    ++result_.trials;
    if (!trial_ok_) ++result_.failed;
  }
  PassResult finish() {
    result_.digest = hash_;
    return std::move(result_);
  }

 private:
  Tracer& tracer_;
  Counters& counters_;
  PassResult result_;
  std::uint64_t hash_ = 14695981039346656037ULL;  // FNV-1a offset basis
  bool trial_ok_ = true;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs shared by every pass; called several times, the last
  /// call's inputs are the ones the passes use.
  virtual void setup(Pass& pass) = 0;
  virtual void run_pass(Pass& pass) = 0;
  /// Checks that need the library's reference path on a sample of trials;
  /// run once after the timed passes, outside the timing. Returns the number
  /// of sampled trials that failed.
  virtual std::uint64_t verify_sample(std::vector<std::string>& failures) {
    (void)failures;
    return 0;
  }
  /// True when graph generation happens in setup() (shared graphs), false
  /// when each trial draws its own graph inside the pass.
  virtual bool graphs_in_setup() const = 0;
};

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Returns nullptr for an unknown name. `tiny` shrinks every size for the
/// benchmark's own smoke test.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny);

}  // namespace perfbench
