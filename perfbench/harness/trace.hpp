// In-memory span tracer for the traced benchmark run.
//
// Spans are recorded by the harness around its calls into the library's
// public functions (the library itself is not instrumented). Each span has a
// layer name, start and end on the steady clock, the span that was open when
// it started (its parent), and the trial it served. Spans stay in memory
// until fold() turns them into per-layer totals; the caller decides whether
// to keep a copy for writing out when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : std::uint8_t {
  kGraphGen,       // make_broadcast_instance
  kGraphConnect,   // is_connected
  kGraphBfs,       // bfs_distances
  kCoreBuild,      // build_centralized_schedule
  kProtoSelect,    // Protocol / StreamingProtocol ::select_transmitters
  kSimStep,        // BroadcastSession::step
  kBatchRun,       // one BatchEngine generation
  kBatchSelect,    // the lane loop: view(lane) + select + add_transmitters
  kBatchStep,      // BatchEngine::step
  kStreamRun,      // one stream session's horizon
  kCount
};

inline constexpr std::array<const char*, static_cast<std::size_t>(Layer::kCount)>
    kLayerNames = {"graph.gen",      "graph.connect", "graph.bfs",
                   "core.schedule_build", "protocols.select", "sim.step",
                   "batch.run",      "batch.select",  "batch.step",
                   "stream.run"};

inline const char* layer_name(Layer l) {
  return kLayerNames[static_cast<std::size_t>(l)];
}

/// Spans serving several trials at once (a batch sweep) carry this trial id.
inline constexpr std::uint32_t kSharedTrial = 0xFFFFFFFFu;
inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

struct Span {
  Layer layer = Layer::kCount;
  std::uint32_t parent = kNoParent;
  std::uint32_t trial = kSharedTrial;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-layer sums over folded spans: inclusive time, self time (inclusive
/// minus the time covered by child spans) and span count.
struct LayerTotals {
  std::array<double, static_cast<std::size_t>(Layer::kCount)> total_s{};
  std::array<double, static_cast<std::size_t>(Layer::kCount)> self_s{};
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> count{};

  double total(Layer l) const { return total_s[static_cast<std::size_t>(l)]; }
  double self(Layer l) const { return self_s[static_cast<std::size_t>(l)]; }
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }

  std::uint32_t open(Layer layer, std::uint32_t trial) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{layer, stack_.empty() ? kNoParent : stack_.back(),
                          trial, now_ns(), 0});
    stack_.push_back(id);
    return id;
  }

  void close(std::uint32_t id) {
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Adds every recorded span to `totals` and forgets them. All spans must
  /// be closed.
  void fold(LayerTotals& totals) {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const auto k = static_cast<std::size_t>(s.layer);
      const auto dur = static_cast<double>(s.end_ns - s.start_ns);
      totals.total_s[k] += dur * 1e-9;
      totals.self_s[k] += static_cast<double>(s.end_ns - s.start_ns -
                                              child_ns[i]) * 1e-9;
      ++totals.count[k];
    }
    spans_.clear();
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span; does nothing (not even a clock read) when tracing is off.
class Scope {
 public:
  Scope(Tracer& tracer, Layer layer, std::uint32_t trial = kSharedTrial)
      : tracer_(tracer.on() ? &tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->open(layer, trial) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

/// Writes spans as CSV (id,name,parent,trial,start_ns,end_ns), start times
/// relative to the first span. Returns false if the file cannot be written.
inline bool write_spans_csv(const std::string& path,
                            const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,name,parent,trial,start_ns,end_ns\n");
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu,%s,%lld,%lld,%lld,%lld\n", i, layer_name(s.layer),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 s.trial == kSharedTrial ? -1LL : static_cast<long long>(s.trial),
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
