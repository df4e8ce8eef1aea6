#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "analysis/throughput.hpp"
#include "analysis/workload.hpp"
#include "core/centralized.hpp"
#include "core/distributed.hpp"
#include "core/lower_bound.hpp"
#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "protocols/decay.hpp"
#include "protocols/streaming_adapters.hpp"
#include "sim/batch/batch_engine.hpp"
#include "sim/batch/batch_runner.hpp"
#include "sim/channel_kernel.hpp"
#include "sim/runner.hpp"
#include "sim/schedule.hpp"
#include "sim/stream/stream_session.hpp"

namespace perfbench {
namespace {

using radio::BroadcastInstance;
using radio::BroadcastRun;
using radio::BroadcastSession;
using radio::Graph;
using radio::GraphBackendChoice;
using radio::NodeId;
using radio::Protocol;
using radio::ProtocolContext;
using radio::Rng;
using radio::RoundStats;

/// Stream index of set-up draws, far above any trial index.
constexpr std::uint64_t kSetupStream = std::uint64_t{1} << 40;

double ln(NodeId n) { return std::log(static_cast<double>(n)); }

/// The round budget of every one-shot broadcast: 60 ln n, as E3 uses.
std::uint32_t round_budget(NodeId n) {
  return static_cast<std::uint32_t>(60.0 * ln(n));
}

std::uint64_t workload_seed(std::uint64_t seed, std::uint64_t tag) {
  return Rng::for_stream(seed, tag)();
}

void count_round(Counters& c, const RoundStats& stats) {
  ++c.sim_rounds;
  c.dense_rounds += stats.dense_kernel ? 1 : 0;
  c.collisions += stats.collisions;
  c.newly_informed += stats.newly_informed;
  c.wasted += stats.wasted;
}

/// broadcast_with, or in a traced pass its round-by-round mirror (the loop
/// of run_protocol in sim/runner.cpp) with spans around the protocol's
/// selection and the session's step.
BroadcastRun drive(Pass& pass, Protocol& protocol, const ProtocolContext& ctx,
                   const Graph& g, NodeId source, Rng& rng,
                   std::uint32_t max_rounds, std::uint32_t trial) {
  if (!pass.traced())
    return radio::broadcast_with(protocol, ctx, g, source, rng, max_rounds);
  Tracer& tr = pass.tracer();
  Counters& c = pass.counters();
  BroadcastSession session(g, source);
  protocol.reset(ctx);
  const bool feedback = protocol.wants_observations();
  if (feedback) session.enable_observations();
  BroadcastRun run;
  std::vector<NodeId> tx;
  for (std::uint32_t round = 1; round <= max_rounds; ++round) {
    if (session.complete()) break;
    tx.clear();
    {
      Scope span(tr, Layer::kProtoSelect, trial);
      protocol.select_transmitters(round, session, rng, tx);
    }
    RoundStats stats;
    {
      Scope span(tr, Layer::kSimStep, trial);
      stats = session.step(tx);
    }
    if (feedback) protocol.observe(round, session.last_observations());
    ++run.rounds;
    run.collisions += stats.collisions;
    run.transmissions += stats.transmitters;
    ++c.select_calls;
    c.selected += tx.size();
    count_round(c, stats);
    c.tx_degree_sum += radio::sum_transmitter_degrees(g, tx);
  }
  run.completed = session.complete();
  run.informed = session.informed_count();
  return run;
}

/// play_schedule, or in a traced pass its mirror (sim/schedule.cpp).
radio::SchedulePlayback replay(Pass& pass, const radio::Schedule& schedule,
                               BroadcastSession& session, std::uint32_t trial) {
  if (!pass.traced()) return radio::play_schedule(schedule, session);
  Tracer& tr = pass.tracer();
  Counters& c = pass.counters();
  radio::SchedulePlayback playback;
  for (const auto& transmitters : schedule.rounds) {
    if (session.complete()) break;
    for (NodeId t : transmitters)
      if (!session.informed(t)) ++playback.protocol_violations;
    RoundStats stats;
    {
      Scope span(tr, Layer::kSimStep, trial);
      stats = session.step(transmitters);
    }
    playback.collisions += stats.collisions;
    ++playback.rounds_used;
    count_round(c, stats);
    c.tx_degree_sum +=
        radio::sum_transmitter_degrees(session.graph(), transmitters);
  }
  playback.completed = session.complete();
  return playback;
}

void digest_run(Pass& pass, const BroadcastRun& run) {
  pass.digest(run.rounds);
  pass.digest(run.collisions);
  pass.digest(run.transmissions);
  pass.digest(run.informed);
  pass.digest(run.completed ? 1 : 0);
}

/// Connectivity and source eccentricity of an instance, with their spans.
/// Returns the eccentricity, or radio::kUnreachable if some node is cut off.
std::uint32_t check_instance(Pass& pass, const Graph& g, NodeId source,
                             std::uint32_t trial) {
  bool connected = false;
  {
    Scope span(pass.tracer(), Layer::kGraphConnect, trial);
    connected = radio::is_connected(g);
  }
  pass.check(connected, "instance is not connected");
  std::vector<std::uint32_t> dist;
  {
    Scope span(pass.tracer(), Layer::kGraphBfs, trial);
    dist = radio::bfs_distances(g, source);
  }
  const std::uint32_t ecc = *std::max_element(dist.begin(), dist.end());
  pass.check(ecc != radio::kUnreachable, "source does not reach every node");
  return ecc;
}

BroadcastInstance generate(Pass& pass, const radio::GnpParams& params, Rng& rng,
                           GraphBackendChoice backend, std::uint32_t trial) {
  BroadcastInstance inst;
  {
    Scope span(pass.tracer(), Layer::kGraphGen, trial);
    inst = radio::make_broadcast_instance(params, rng, backend);
  }
  if (pass.traced()) {
    pass.counters().gen_edges += inst.graph.num_edges();
    pass.counters().redraws +=
        (inst.resampled ? 1 : 0) + (inst.giant_component ? 1 : 0);
  }
  return inst;
}

/// The per-run checks every completed one-shot broadcast must pass.
void check_run(Pass& pass, const BroadcastRun& run, const Graph& g,
               std::uint32_t ecc, const char* label) {
  const std::string who(label);
  pass.check(run.completed, who + " did not finish within its round budget");
  pass.check(run.informed == g.num_nodes(), who + " left nodes uninformed");
  pass.check(run.rounds >= ecc, who + " beat the source eccentricity");
}

// ---------------------------------------------------------------------------
// gnp_sparse and dense_centralized: a fresh graph per trial.
// ---------------------------------------------------------------------------

struct PerTrialSpec {
  std::uint64_t tag;
  std::vector<NodeId> sizes;   ///< one trial per entry, in pass order
  double (*degree)(NodeId n);  ///< expected degree d(n)
  GraphBackendChoice backend;
  bool with_decay;             ///< also run Decay on the instance
};

double degree_log2n(NodeId n) { return ln(n) * ln(n); }
double degree_n075(NodeId n) {
  return std::pow(static_cast<double>(n), 0.75);
}

class PerTrialWorkload final : public Workload {
 public:
  PerTrialWorkload(PerTrialSpec spec, std::uint64_t seed)
      : spec_(std::move(spec)), seed_(workload_seed(seed, spec_.tag)) {}

  bool graphs_in_setup() const override { return false; }

  // Nothing is shared between trials; set-up is one untimed warm-up trial
  // at the smallest size, so allocator and caches are warm before timing.
  void setup(Pass& pass) override {
    trial(pass, *std::min_element(spec_.sizes.begin(), spec_.sizes.end()),
          kSetupStream, 0);
  }

  void run_pass(Pass& pass) override {
    for (std::size_t i = 0; i < spec_.sizes.size(); ++i) {
      const std::int64_t t0 = now_ns();
      trial(pass, spec_.sizes[i], i, static_cast<std::uint32_t>(i));
      pass.result().trial_ms.push_back(static_cast<double>(now_ns() - t0) *
                                       1e-6);
    }
  }

 private:
  void trial(Pass& pass, NodeId n, std::uint64_t stream, std::uint32_t id) {
    pass.begin_trial();
    Rng rng = Rng::for_stream(seed_, stream);
    const radio::GnpParams params =
        radio::GnpParams::with_degree(n, spec_.degree(n));
    const BroadcastInstance inst =
        generate(pass, params, rng, spec_.backend, id);
    const Graph& g = inst.graph;
    const NodeId source = radio::pick_source(g, rng);
    const std::uint32_t ecc = check_instance(pass, g, source, id);

    radio::CentralizedResult built;
    {
      Scope span(pass.tracer(), Layer::kCoreBuild, id);
      built = radio::build_centralized_schedule(
          g, source, inst.params.expected_degree(), rng);
    }
    const radio::CentralizedBuildReport& report = built.report;
    if (pass.traced()) {
      pass.counters().schedule_rounds += built.schedule.length();
      pass.counters().schedule_tx += built.schedule.total_transmissions();
    }
    BroadcastSession session(g, source);
    const radio::SchedulePlayback playback =
        replay(pass, built.schedule, session, id);
    pass.check(report.completed, "Thm-5 build did not complete");
    pass.check(playback.completed == report.completed,
               "Thm-5 replay and build disagree on completion");
    pass.check(playback.rounds_used == report.total_rounds,
               "Thm-5 replay length differs from report.total_rounds");
    pass.check(playback.protocol_violations == 0,
               "Thm-5 schedule has uninformed transmitters");
    pass.check(session.informed_count() == g.num_nodes(),
               "Thm-5 replay left nodes uninformed");
    pass.check(report.eccentricity == ecc,
               "Thm-5 report eccentricity differs from BFS");
    pass.check(playback.rounds_used >= ecc,
               "Thm-5 replay beat the source eccentricity");

    const ProtocolContext ctx = radio::context_for(inst);
    const std::uint32_t budget = round_budget(g.num_nodes());
    radio::ElsasserGasieniecBroadcast thm7;
    const BroadcastRun run7 = drive(pass, thm7, ctx, g, source, rng, budget, id);
    check_run(pass, run7, g, ecc, "Thm-7");

    pass.digest(g.num_nodes());
    pass.digest(g.num_edges());
    pass.digest(source);
    pass.digest(ecc);
    pass.digest(playback.rounds_used);
    pass.digest(playback.collisions);
    pass.digest(built.schedule.total_transmissions());
    pass.digest(session.informed_count());
    digest_run(pass, run7);
    std::uint64_t rounds = playback.rounds_used + run7.rounds;
    if (spec_.with_decay) {
      radio::DecayProtocol decay;
      const BroadcastRun rund =
          drive(pass, decay, ctx, g, source, rng, budget, id);
      check_run(pass, rund, g, ecc, "Decay");
      digest_run(pass, rund);
      rounds += rund.rounds;
    }
    pass.result().sim_rounds += rounds;
    pass.end_trial();
  }

  PerTrialSpec spec_;
  std::uint64_t seed_;
};

// ---------------------------------------------------------------------------
// shared_batch: many trials per shared graph through run_broadcast_batch.
// ---------------------------------------------------------------------------

struct SharedGraph {
  BroadcastInstance inst;
  NodeId source = 0;
  std::uint32_t ecc = 0;
  ProtocolContext ctx;
};

SharedGraph build_shared(Pass& pass, std::uint64_t seed, NodeId n,
                         std::uint64_t index) {
  Rng rng = Rng::for_stream(seed, kSetupStream + index);
  const auto id = static_cast<std::uint32_t>(index);
  SharedGraph s;
  s.inst = generate(pass, radio::GnpParams::with_degree(n, degree_log2n(n)), rng,
                    GraphBackendChoice::kAuto, id);
  s.source = radio::pick_source(s.inst.graph, rng);
  s.ecc = check_instance(pass, s.inst.graph, s.source, id);
  s.ctx = radio::context_for(s.inst);
  return s;
}

void digest_shared(Pass& pass, const SharedGraph& s) {
  pass.digest(s.inst.graph.num_nodes());
  pass.digest(s.inst.graph.num_edges());
  pass.digest(s.source);
  pass.digest(s.ecc);
}

enum class BatchProtocol { kDecay, kThm7, kOblivious };
constexpr BatchProtocol kBatchProtocols[] = {
    BatchProtocol::kDecay, BatchProtocol::kThm7, BatchProtocol::kOblivious};

radio::ProtocolFactory factory_for(BatchProtocol kind,
                                   const ProtocolContext& ctx,
                                   std::uint32_t budget) {
  switch (kind) {
    case BatchProtocol::kDecay:
      return [](int) { return std::make_unique<radio::DecayProtocol>(); };
    case BatchProtocol::kThm7:
      return [](int) {
        return std::make_unique<radio::ElsasserGasieniecBroadcast>();
      };
    case BatchProtocol::kOblivious:
      break;
  }
  // Theorem 8's oblivious form of the Theorem-7 schedule: completes w.h.p.
  // within the budget, unlike E7's random candidate sequences.
  return [seq = radio::theorem7_oblivious_sequence(ctx, budget)](int) {
    return std::make_unique<radio::ObliviousSequenceProtocol>(seq);
  };
}

class SharedBatchWorkload final : public Workload {
 public:
  /// `graphs` lists each shared graph's n and its trials per protocol.
  SharedBatchWorkload(std::vector<std::pair<NodeId, int>> graphs,
                      std::uint32_t lanes, std::uint64_t seed)
      : specs_(std::move(graphs)),
        lanes_(lanes),
        seed_(workload_seed(seed, 2)) {}

  bool graphs_in_setup() const override { return true; }

  void setup(Pass& pass) override {
    graphs_.clear();
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      pass.begin_trial();
      graphs_.push_back(build_shared(pass, seed_, specs_[i].first, i));
      pass.end_trial();
    }
  }

  void run_pass(Pass& pass) override {
    const bool keep = first_runs_.empty();
    for (std::size_t gi = 0; gi < graphs_.size(); ++gi) {
      const SharedGraph& s = graphs_[gi];
      const int trials = specs_[gi].second;
      digest_shared(pass, s);
      const std::uint32_t budget = round_budget(s.inst.graph.num_nodes());
      for (std::size_t k = 0; k < std::size(kBatchProtocols); ++k) {
        const radio::ProtocolFactory factory =
            factory_for(kBatchProtocols[k], s.ctx, budget);
        const std::uint64_t first_stream = call_stream(gi, k);
        const std::int64_t t0 = now_ns();
        std::vector<BroadcastRun> runs =
            pass.traced()
                ? traced_batch(pass, s, trials, factory, first_stream, budget)
                : radio::run_broadcast_batch(s.inst.graph, s.ctx, s.source,
                                             trials, seed_, first_stream,
                                             factory, budget, lanes_);
        // One latency sample per call: the call's time per trial.
        pass.result().trial_ms.push_back(static_cast<double>(now_ns() - t0) *
                                         1e-6 / trials);
        for (const BroadcastRun& run : runs) {
          pass.begin_trial();
          check_run(pass, run, s.inst.graph, s.ecc, "batched trial");
          digest_run(pass, run);
          pass.result().sim_rounds += run.rounds;
          pass.end_trial();
        }
        if (keep) first_runs_.push_back(std::move(runs));
      }
    }
  }

  // Trial t of a call must equal broadcast_with on stream first_stream + t
  // (the batch determinism contract); checks the first and last trial of
  // every call plus one chosen by the seed.
  std::uint64_t verify_sample(std::vector<std::string>& failures) override {
    std::uint64_t failed = 0;
    for (std::size_t gi = 0; gi < graphs_.size(); ++gi) {
      const SharedGraph& s = graphs_[gi];
      const int trials = specs_[gi].second;
      const std::uint32_t budget = round_budget(s.inst.graph.num_nodes());
      for (std::size_t k = 0; k < std::size(kBatchProtocols); ++k) {
        const radio::ProtocolFactory factory =
            factory_for(kBatchProtocols[k], s.ctx, budget);
        const std::uint64_t first_stream = call_stream(gi, k);
        const std::vector<BroadcastRun>& runs =
            first_runs_[gi * std::size(kBatchProtocols) + k];
        const int middle = static_cast<int>(
            Rng::for_stream(seed_, first_stream)() %
            static_cast<std::uint64_t>(trials));
        for (const int t : {0, middle, trials - 1}) {
          Rng rng = Rng::for_stream(seed_,
                                    first_stream + static_cast<std::uint64_t>(t));
          const std::unique_ptr<Protocol> protocol = factory(t);
          const BroadcastRun ref = radio::broadcast_with(
              *protocol, s.ctx, s.inst.graph, s.source, rng, budget);
          const BroadcastRun& got = runs[static_cast<std::size_t>(t)];
          if (ref.completed != got.completed || ref.rounds != got.rounds ||
              ref.collisions != got.collisions ||
              ref.transmissions != got.transmissions ||
              ref.informed != got.informed) {
            ++failed;
            if (failures.size() < 8)
              failures.push_back("batched trial " + std::to_string(t) +
                                 " differs from broadcast_with");
          }
        }
      }
    }
    return failed;
  }

 private:
  static std::uint64_t call_stream(std::size_t graph, std::size_t kind) {
    return (static_cast<std::uint64_t>(graph) * std::size(kBatchProtocols) +
            kind)
           << 20;
  }

  /// Traced stand-in for run_broadcast_batch: trials run in generations of
  /// `lanes_`, each generation opened together on one BatchEngine and
  /// stepped until every lane retires (BatchScheduler's per-lane semantics,
  /// without refill or compaction, which only affect wall time).
  std::vector<BroadcastRun> traced_batch(Pass& pass, const SharedGraph& s,
                                         int trials,
                                         const radio::ProtocolFactory& factory,
                                         std::uint64_t first_stream,
                                         std::uint32_t budget) {
    Tracer& tr = pass.tracer();
    Counters& c = pass.counters();
    const radio::BatchDispatch plan =
        radio::plan_broadcast_batch(s.inst.graph, trials, factory, lanes_);
    c.dispatch_lanes = plan.lanes;
    std::vector<BroadcastRun> results(static_cast<std::size_t>(trials));
    std::vector<NodeId> tx;
    for (int first = 0; first < trials; first += static_cast<int>(lanes_)) {
      const auto width = static_cast<std::uint32_t>(
          std::min<int>(static_cast<int>(lanes_), trials - first));
      Scope run_span(tr, Layer::kBatchRun);
      radio::BatchEngine engine(s.inst.graph, width);
      std::vector<std::unique_ptr<Protocol>> protocols(width);
      std::vector<Rng> rngs(width);
      for (std::uint32_t lane = 0; lane < width; ++lane) {
        const int t = first + static_cast<int>(lane);
        protocols[lane] = factory(t);
        rngs[lane] = Rng::for_stream(
            seed_, first_stream + static_cast<std::uint64_t>(t));
        protocols[lane]->reset(s.ctx);
        engine.open_lane(lane, s.source);
      }
      std::vector<std::uint32_t> active;
      while (true) {
        active.clear();
        for (std::uint32_t lane = 0; lane < width; ++lane) {
          const BroadcastRun& r =
              results[static_cast<std::size_t>(first) + lane];
          if (!engine.complete(lane) && r.rounds < budget)
            active.push_back(lane);
        }
        if (active.empty()) break;
        {
          Scope select_span(tr, Layer::kBatchSelect);
          for (const std::uint32_t lane : active) {
            const auto t = static_cast<std::uint32_t>(first) + lane;
            tx.clear();
            {
              Scope span(tr, Layer::kProtoSelect, t);
              protocols[lane]->select_transmitters(
                  engine.round(lane) + 1, engine.view(lane), rngs[lane], tx);
            }
            engine.add_transmitters(lane, tx);
            results[t].transmissions += tx.size();
            ++c.select_calls;
            c.selected += tx.size();
          }
        }
        {
          Scope step_span(tr, Layer::kBatchStep);
          engine.step(active);
        }
        ++c.batch_steps;
        c.batch_lane_steps += active.size();
        c.batch_lane_slots += width;
        for (const std::uint32_t lane : active) {
          BroadcastRun& r = results[static_cast<std::size_t>(first) + lane];
          ++r.rounds;
          r.collisions += engine.outcome(lane).collisions;
        }
      }
      for (std::uint32_t lane = 0; lane < width; ++lane) {
        BroadcastRun& r = results[static_cast<std::size_t>(first) + lane];
        r.completed = engine.complete(lane);
        r.informed = engine.informed_count(lane);
      }
    }
    return results;
  }

  std::vector<std::pair<NodeId, int>> specs_;
  std::uint32_t lanes_;
  std::uint64_t seed_;
  std::vector<SharedGraph> graphs_;
  std::vector<std::vector<BroadcastRun>> first_runs_;
};

// ---------------------------------------------------------------------------
// stream_service: long pipelined stream sessions on small shared graphs.
// ---------------------------------------------------------------------------

struct StreamOutcome {
  std::uint64_t enqueued = 0;
  std::uint64_t delivered = 0;
  std::uint64_t waiting = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t collisions = 0;
  std::uint64_t latency_sum = 0;
  std::uint32_t rounds = 0;
  bool conserves = false;
};

class StreamWorkload final : public Workload {
 public:
  /// `sessions` stream sessions per (graph, protocol), each on its own
  /// arrival and protocol streams.
  StreamWorkload(std::vector<NodeId> sizes, int sessions, double rate_fraction,
                 std::uint32_t horizon, std::uint64_t seed)
      : sizes_(std::move(sizes)),
        sessions_(sessions),
        rate_fraction_(rate_fraction),
        horizon_(horizon),
        seed_(workload_seed(seed, 3)) {}

  bool graphs_in_setup() const override { return true; }

  // Graphs this small build in about a millisecond, a time that swung by a
  // third between otherwise equal runs. One short session per protocol on
  // the first graph warms the session path and gives set-up a length that
  // can be timed.
  void setup(Pass& pass) override {
    graphs_.clear();
    for (std::size_t i = 0; i < sizes_.size(); ++i) {
      pass.begin_trial();
      graphs_.push_back(build_shared(pass, seed_, sizes_[i], i));
      pass.end_trial();
    }
    for (const bool decay : {true, false}) {
      pass.begin_trial();
      const std::unique_ptr<radio::StreamingProtocol> protocol =
          make_protocol(decay);
      const StreamOutcome out = library_stream(
          graphs_.front(), *protocol,
          config_for(graphs_.front(), kSetupStream + (decay ? 0 : 1),
                     kWarmupRounds));
      pass.check(out.conserves, "stream queue does not conserve messages");
      pass.end_trial();
    }
  }

  void run_pass(Pass& pass) override {
    std::uint32_t id = 0;
    for (const SharedGraph& s : graphs_) {
      digest_shared(pass, s);
      for (int k = 0; k < 2 * sessions_; ++k) {
        const std::unique_ptr<radio::StreamingProtocol> protocol =
            make_protocol(k < sessions_);
        const radio::StreamConfig config = config_for(s, id, horizon_);
        pass.begin_trial();
        const std::int64_t t0 = now_ns();
        const StreamOutcome out =
            pass.traced() ? traced_stream(pass, s, *protocol, config, id)
                          : library_stream(s, *protocol, config);
        pass.result().trial_ms.push_back(static_cast<double>(now_ns() - t0) *
                                         1e-6);
        pass.check(out.conserves, "stream queue does not conserve messages");
        pass.check(out.rounds == horizon_, "stream rounds differ from horizon");
        pass.digest(out.enqueued);
        pass.digest(out.delivered);
        pass.digest(out.waiting);
        pass.digest(out.in_flight);
        pass.digest(out.transmissions);
        pass.digest(out.collisions);
        pass.digest(out.latency_sum);
        pass.digest(out.rounds);
        pass.result().sim_rounds += out.rounds;
        pass.end_trial();
        ++id;
      }
    }
  }

 private:
  static constexpr std::uint32_t kDepth = 2;
  static constexpr std::uint32_t kWarmupRounds = 2000;

  static std::unique_ptr<radio::StreamingProtocol> make_protocol(bool decay) {
    return decay ? radio::make_pipelined_decay(kDepth)
                 : radio::make_pipelined_flooding(kDepth);
  }

  radio::StreamConfig config_for(const SharedGraph& s, std::uint64_t stream,
                                 std::uint32_t horizon) const {
    radio::StreamConfig config;
    config.rate =
        rate_fraction_ * radio::ghk_throughput_bound(s.inst.graph.num_nodes());
    config.horizon = horizon;
    config.seed = seed_;
    config.stream = stream;
    return config;
  }

  static StreamOutcome library_stream(const SharedGraph& s,
                                      radio::StreamingProtocol& protocol,
                                      const radio::StreamConfig& config) {
    radio::StreamSession session(s.inst.graph, s.ctx, protocol, config);
    const radio::StreamMetrics m = session.run();
    StreamOutcome out;
    out.enqueued = m.enqueued;
    out.delivered = m.delivered;
    out.waiting = m.waiting_at_horizon;
    out.in_flight = m.in_flight_at_horizon;
    out.transmissions = m.transmissions;
    out.collisions = m.collisions;
    for (const std::uint32_t l : m.latencies) out.latency_sum += l;
    out.rounds = m.rounds;
    out.conserves = session.queue().conserves() &&
                    session.queue().total_enqueued() == m.enqueued;
    return out;
  }

  /// Mirror of StreamSession::run (sim/stream/stream_session.cpp) with
  /// spans around the protocol's selection and each session step.
  StreamOutcome traced_stream(Pass& pass, const SharedGraph& s,
                              radio::StreamingProtocol& protocol,
                              const radio::StreamConfig& config,
                              std::uint32_t id) {
    Tracer& tr = pass.tracer();
    Counters& c = pass.counters();
    Scope run_span(tr, Layer::kStreamRun, id);
    struct Slot {
      std::unique_ptr<BroadcastSession> session;
      std::uint64_t message_id = 0;
      std::uint32_t local_round = 0;
      bool active = false;
    };
    const Graph& g = s.inst.graph;
    protocol.reset(s.ctx);
    const std::uint32_t depth = protocol.pipeline_depth();
    std::vector<Slot> slots(depth);
    radio::MessageQueue queue;
    radio::PoissonArrivals arrivals(
        config.rate, s.ctx.n,
        Rng::for_stream(config.seed, radio::kArrivalStreamTag | config.stream));
    Rng protocol_rng =
        Rng::for_stream(config.seed, radio::kProtocolStreamTag | config.stream);
    StreamOutcome out;
    std::vector<NodeId> origins;
    std::vector<NodeId> tx;
    for (std::uint32_t r = 1; r <= config.horizon; ++r) {
      origins.clear();
      arrivals.draw(origins);
      for (const NodeId origin : origins) queue.enqueue(origin, r);
      const std::uint32_t si = (r - 1) % depth;
      Slot& slot = slots[si];
      if (!slot.active && queue.has_waiting()) {
        slot.message_id = queue.start_next(r);
        slot.session = std::make_unique<BroadcastSession>(
            g, queue.message(slot.message_id).origin);
        slot.local_round = 0;
        slot.active = true;
        protocol.on_message_start(si);
      }
      if (!slot.active) continue;
      ++slot.local_round;
      tx.clear();
      {
        Scope span(tr, Layer::kProtoSelect, id);
        protocol.select_transmitters(si, slot.local_round, *slot.session,
                                     protocol_rng, tx);
      }
      RoundStats stats;
      {
        Scope span(tr, Layer::kSimStep, id);
        stats = slot.session->step(tx);
      }
      out.transmissions += tx.size();
      ++c.select_calls;
      c.selected += tx.size();
      count_round(c, stats);
      c.tx_degree_sum += radio::sum_transmitter_degrees(g, tx);
      if (slot.session->complete()) {
        queue.mark_delivered(slot.message_id, r);
        out.latency_sum += r - queue.message(slot.message_id).arrival_round;
        out.collisions += slot.session->total_collisions();
        slot.session.reset();
        slot.active = false;
      }
    }
    for (const Slot& slot : slots)
      if (slot.active) out.collisions += slot.session->total_collisions();
    out.enqueued = queue.total_enqueued();
    out.delivered = queue.delivered();
    out.waiting = queue.waiting();
    out.in_flight = queue.in_flight();
    out.rounds = config.horizon;
    out.conserves = queue.conserves();
    c.stream_rounds += config.horizon;
    c.stream_tx += out.transmissions;
    c.stream_delivered += out.delivered;
    return out;
  }

  std::vector<NodeId> sizes_;
  int sessions_;
  double rate_fraction_;
  std::uint32_t horizon_;
  std::uint64_t seed_;
  std::vector<SharedGraph> graphs_;
};

std::vector<NodeId> repeat_sizes(
    std::initializer_list<std::pair<NodeId, int>> counts) {
  std::vector<NodeId> out;
  for (const auto& [n, k] : counts) out.insert(out.end(), k, n);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "gnp_sparse", "shared_batch", "dense_centralized", "stream_service"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny) {
  if (name == "gnp_sparse") {
    PerTrialSpec spec{0, {}, degree_log2n, GraphBackendChoice::kAuto, false};
    spec.sizes = tiny ? repeat_sizes({{1u << 8, 2}, {1u << 9, 1}})
                      : repeat_sizes({{1u << 13, 12}, {1u << 14, 3}, {1u << 15, 1}});
    return std::make_unique<PerTrialWorkload>(std::move(spec), seed);
  }
  if (name == "dense_centralized") {
    PerTrialSpec spec{1, {}, degree_n075, GraphBackendChoice::kBitmap, true};
    spec.sizes = tiny ? repeat_sizes({{1u << 8, 2}, {1u << 9, 1}})
                      : repeat_sizes({{1u << 12, 8}, {1u << 13, 4}});
    return std::make_unique<PerTrialWorkload>(std::move(spec), seed);
  }
  if (name == "shared_batch") {
    using Graphs = std::vector<std::pair<NodeId, int>>;
    if (tiny)
      return std::make_unique<SharedBatchWorkload>(
          Graphs{{1u << 8, 8}, {1u << 9, 4}}, 64, seed);
    return std::make_unique<SharedBatchWorkload>(
        Graphs{{1u << 12, 256}, {1u << 14, 64}}, 64, seed);
  }
  if (name == "stream_service") {
    if (tiny)
      return std::make_unique<StreamWorkload>(
          std::vector<NodeId>{1u << 7, 1u << 8}, 1, 0.1, 400, seed);
    return std::make_unique<StreamWorkload>(
        std::vector<NodeId>{1u << 9, 1u << 10}, 6, 0.1, 10000, seed);
  }
  return nullptr;
}

}  // namespace perfbench
