// perfbench_runner: runs one benchmark workload for a fixed time and prints
// its metrics, ending with one JSON line.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--tiny] [--spans FILE]
//
// --trace 0 reports the end-to-end metrics of untraced passes. --trace 1
// alternates untraced and traced passes and reports per-layer metrics from
// the traced ones plus the tracing overhead; --spans writes the spans of the
// first traced pass as CSV. --tiny shrinks every workload for smoke tests.
#include <sys/resource.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 7;
constexpr int kMinPasses = 3;
/// Spans written to the --spans file: the first traced pass, up to this many.
constexpr std::size_t kMaxKeptSpans = std::size_t{1} << 18;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_path;
};

bool parse_options(int argc, char** argv, Options& opt) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && opt.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (arg == "--spans") {
      opt.spans_path = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Linear-interpolation quantile (numpy's default method).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Peak resident set size in MiB: VmHWM, or getrusage where /proc is absent.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    std::printf("metric %-32s %.6g %s\n", name.c_str(), value, unit.c_str());
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }

  void print_json(bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

struct TimedPass {
  PassResult result;
  double seconds = 0.0;
};

TimedPass timed_pass(Workload& w, Tracer& tracer, Counters& counters) {
  Pass pass(tracer, counters);
  const std::int64_t t0 = now_ns();
  w.run_pass(pass);
  TimedPass out;
  out.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  out.result = pass.finish();
  return out;
}

void print_failures(const std::vector<std::string>& failures) {
  for (const std::string& f : failures)
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
}

int run(const Options& opt) {
  const std::unique_ptr<Workload> workload =
      make_workload(opt.workload, opt.seed, opt.tiny);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
#ifdef _OPENMP
  omp_set_num_threads(1);
  const int threads = omp_get_max_threads();
#else
  const int threads = 1;
#endif
  std::printf("meta workload=%s seed=%" PRIu64 " seconds=%g trace=%d tiny=%d "
              "threads=%d compiler=\"%s\" flags=\"%s\"\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0,
              opt.tiny ? 1 : 0, threads, PERFBENCH_COMPILER, PERFBENCH_FLAGS);

  Tracer off(false);
  Tracer tracer(true);
  Counters scratch;
  std::uint64_t attempted = 0, failed = 0;
  const auto absorb = [&](const PassResult& r) {
    attempted += r.trials;
    failed += r.failed;
    print_failures(r.failures);
  };

  // Set-up, repeated: the median untraced time is the reported set-up time.
  // A traced run adds one traced set-up, for the layers that run there on
  // shared-graph workloads. The passes use the last set-up's inputs.
  std::vector<double> setup_times;
  LayerTotals setup_totals;
  Counters setup_counters;
  double traced_setup_s = 0.0;
  for (int i = 0; i < kSetupRepeats + (opt.trace ? 1 : 0); ++i) {
    const bool traced = i == kSetupRepeats;
    Pass pass(traced ? tracer : off, traced ? setup_counters : scratch);
    const std::int64_t t0 = now_ns();
    workload->setup(pass);
    const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    if (traced) {
      traced_setup_s = seconds;
      tracer.fold(setup_totals);
    } else {
      setup_times.push_back(seconds);
    }
    absorb(pass.finish());
  }

  // Timed passes until the time is up. A traced run alternates untraced and
  // traced passes so both see the same machine state.
  std::vector<double> untraced_s, traced_s, trial_ms;
  std::uint64_t pass_trials = 0, pass_rounds = 0;
  std::uint64_t digest = 0;
  bool have_digest = false, digests_agree = true;
  LayerTotals totals;
  Counters counters;
  std::vector<Span> kept_spans;
  double peak_rss = 0.0;  // after set-up and the first untraced pass
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::size_t min_passes = opt.tiny ? 1 : kMinPasses;
  for (int i = 0;; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    const std::size_t done =
        opt.trace ? std::min(untraced_s.size(), traced_s.size())
                  : untraced_s.size();
    if (!traced && done >= min_passes && now_ns() >= deadline) break;
    if (traced) counters = Counters{};
    TimedPass p = timed_pass(*workload, traced ? tracer : off,
                             traced ? counters : scratch);
    if (traced) {
      if (kept_spans.empty() && !opt.spans_path.empty()) {
        const std::vector<Span>& spans = tracer.spans();
        kept_spans.assign(spans.begin(),
                          spans.begin() + static_cast<std::ptrdiff_t>(std::min(
                                              spans.size(), kMaxKeptSpans)));
      }
      tracer.fold(totals);
      traced_s.push_back(p.seconds);
    } else {
      // Later passes repeat the same allocations, but how far heap
      // fragmentation grows then depends on how many fit in the time.
      if (untraced_s.empty()) peak_rss = peak_rss_mib();
      untraced_s.push_back(p.seconds);
      pass_trials += p.result.trials;
      pass_rounds += p.result.sim_rounds;
      trial_ms.insert(trial_ms.end(), p.result.trial_ms.begin(),
                      p.result.trial_ms.end());
    }
    absorb(p.result);
    if (!have_digest) {
      digest = p.result.digest;
      have_digest = true;
    } else if (p.result.digest != digest) {
      digests_agree = false;
    }
  }
  std::vector<std::string> sample_failures;
  failed += workload->verify_sample(sample_failures);
  print_failures(sample_failures);
  if (!digests_agree)
    std::fprintf(stderr, "perfbench: pass digests differ (%s)\n",
                 opt.trace ? "traced vs untraced or between passes"
                           : "between passes");
  const bool correct = digests_agree && failed == 0;

  std::printf("digest %s %016" PRIx64 "\n", opt.workload.c_str(), digest);
  for (const auto& [label, times] :
       {std::pair{"setup_s untraced", &setup_times},
        std::pair{"pass_s untraced", &untraced_s},
        std::pair{"pass_s traced", &traced_s}}) {
    if (times->empty()) continue;
    std::printf("%s", label);
    for (const double t : *times) std::printf(" %.4f", t);
    std::printf("\n");
  }
  std::printf("passes untraced=%zu traced=%zu trials_per_pass=%" PRIu64
              " latency_samples=%zu attempted=%" PRIu64 " failed=%" PRIu64
              "\n",
              untraced_s.size(), traced_s.size(),
              untraced_s.empty() ? 0 : pass_trials / untraced_s.size(),
              trial_ms.size(), attempted, failed);

  Report report;
  if (!opt.trace) {
    // Every pass repeats the same trials, so the rates are one pass's work
    // over the median pass time.
    const double wall_s = median(untraced_s);
    const auto passes = static_cast<double>(untraced_s.size());
    report.add("wall_s", wall_s, "s");
    report.add("setup_s", median(setup_times), "s");
    report.add("trials_per_s",
               ratio(static_cast<double>(pass_trials) / passes, wall_s), "1/s");
    report.add("sim_rounds_per_s",
               ratio(static_cast<double>(pass_rounds) / passes, wall_s), "1/s");
    report.add("trial_ms_p50", quantile(trial_ms, 0.5), "ms");
    report.add("trial_ms_p90", quantile(trial_ms, 0.9), "ms");
    report.add("peak_rss_mb", peak_rss, "MiB");
    report.print_json(correct, attempted, failed);
    return 0;
  }

  // Per-layer metrics. Times are per traced pass, except graph generation
  // and checks on shared-graph workloads, which run in set-up and are per
  // traced set-up. Counts are per pass (every pass repeats the same trials).
  const auto traced_passes = static_cast<double>(traced_s.size());
  const double traced_pass_s = median(traced_s);
  const auto per_pass = [&](Layer l) { return totals.total(l) / traced_passes; };
  const bool shared = workload->graphs_in_setup();
  const LayerTotals& graph_totals = shared ? setup_totals : totals;
  const Counters& graph_counters = shared ? setup_counters : counters;
  const double graph_div = shared ? 1.0 : traced_passes;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

  for (std::size_t k = 0; k < static_cast<std::size_t>(Layer::kCount); ++k) {
    const auto l = static_cast<Layer>(k);
    if (totals.count[k] > 0)
      std::printf("layer %-22s self_s=%.6g share=%.4f spans=%" PRIu64
                  " (per pass)\n",
                  layer_name(l), totals.self(l) / traced_passes,
                  ratio(totals.self(l) / traced_passes, traced_pass_s),
                  totals.count[k] / traced_s.size());
    if (setup_totals.count[k] > 0)
      std::printf("layer %-22s self_s=%.6g share=%.4f spans=%" PRIu64
                  " (per set-up)\n",
                  layer_name(l), setup_totals.self(l),
                  ratio(setup_totals.self(l), traced_setup_s),
                  setup_totals.count[k]);
  }

  const double gen_s = graph_totals.total(Layer::kGraphGen) / graph_div;
  report.add("graph.gen_s", gen_s, "s");
  report.add("graph.gen_share",
             ratio(gen_s, shared ? traced_setup_s : traced_pass_s), "ratio");
  report.add("graph.gen_edges_per_s",
             ratio(count(graph_counters.gen_edges), gen_s), "1/s");
  report.add("graph.redraws", count(graph_counters.redraws), "count");
  report.add("graph.connect_s",
             graph_totals.total(Layer::kGraphConnect) / graph_div, "s");
  report.add("graph.bfs_s", graph_totals.total(Layer::kGraphBfs) / graph_div,
             "s");

  report.add("core.schedule_build_s", per_pass(Layer::kCoreBuild), "s");
  report.add("core.schedule_rounds", count(counters.schedule_rounds), "count");
  report.add("core.schedule_tx", count(counters.schedule_tx), "count");

  const double select_s = per_pass(Layer::kProtoSelect);
  report.add("protocols.select_s", select_s, "s");
  report.add("protocols.select_ns_per_round",
             ratio(select_s * 1e9, count(counters.select_calls)), "ns");
  report.add("protocols.transmitters", count(counters.selected), "count");

  const double step_s = per_pass(Layer::kSimStep);
  report.add("sim.step_s", step_s, "s");
  report.add("sim.step_ns_per_round",
             ratio(step_s * 1e9, count(counters.sim_rounds)), "ns");
  report.add("sim.rounds", count(counters.sim_rounds), "count");
  report.add("sim.dense_round_frac",
             ratio(count(counters.dense_rounds), count(counters.sim_rounds)),
             "ratio");
  report.add("sim.collisions", count(counters.collisions), "count");
  report.add("sim.useful_delivery_ratio",
             ratio(count(counters.newly_informed),
                   count(counters.newly_informed + counters.wasted)),
             "ratio");
  report.add("sim.tx_degree_sum", count(counters.tx_degree_sum),
             "edges_computed");

  report.add("batch.run_s", per_pass(Layer::kBatchRun), "s");
  report.add("batch.step_s", per_pass(Layer::kBatchStep), "s");
  report.add("batch.select_s", per_pass(Layer::kBatchSelect), "s");
  report.add("batch.lane_occupancy",
             ratio(count(counters.batch_lane_steps),
                   count(counters.batch_lane_slots)),
             "ratio");
  report.add("batch.dispatch_lanes", count(counters.dispatch_lanes), "lanes");

  const double stream_s = per_pass(Layer::kStreamRun);
  report.add("stream.run_s", stream_s, "s");
  report.add("stream.ns_per_round",
             ratio(stream_s * 1e9, count(counters.stream_rounds)), "ns");
  report.add("stream.transmissions", count(counters.stream_tx), "count");
  report.add("stream.delivered", count(counters.stream_delivered), "count");

  const double untraced_pass_s = median(untraced_s);
  report.add("trace.overhead_s", traced_pass_s - untraced_pass_s, "s");
  report.add("trace.overhead_share",
             ratio(traced_pass_s - untraced_pass_s, untraced_pass_s), "ratio");

  if (!opt.spans_path.empty() && !write_spans_csv(opt.spans_path, kept_spans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 opt.spans_path.c_str());
    return 1;
  }
  report.print_json(correct, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // glibc adapts its mmap threshold to the block sizes freed so far, so
  // whether a trial's large buffers came from the heap, and with them the
  // peak RSS, depended on the run's history: dense_centralized read 40.6 or
  // 65.5 MiB from one seed to the next. Fixed thresholds keep freed blocks
  // (up to glibc's 32 MiB cap) in the heap for the next trial to reuse.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
#endif
  perfbench::Options opt;
  if (!perfbench::parse_options(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--spans FILE]\n");
    return 2;
  }
  return perfbench::run(opt);
}
