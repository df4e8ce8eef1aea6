// Streaming determinism regression (DESIGN.md §9's contract): the E16 quick
// experiment must produce byte-identical CSV and metrics.jsonl at
// OMP_NUM_THREADS=1 and 4 for the same seed (modulo wall_seconds, which is
// timing, not data).
//
// The contract holds for a sharper reason than the per-trial experiments':
// a stream session interleaves TWO tagged Rng streams (arrivals and
// protocol coin flips) over thousands of rounds, and consumes neither the
// batch core nor any cross-trial state — so threading must be invisible by
// construction, and this test pins that it stays so.
#include <gtest/gtest.h>

#include <regex>
#include <string>
#include <vector>

#include "analysis/bench_runner.hpp"
#include "analysis/experiment_registry.hpp"
#include "analysis/trial_runner.hpp"

#if defined(RADIO_HAVE_OPENMP)
#include <omp.h>
#endif

namespace radio {
namespace {

struct RunArtifacts {
  std::string csv;
  std::vector<std::string> metrics;  // wall_seconds scrubbed
};

std::string scrub_wall_seconds(const std::string& line) {
  static const std::regex kWall("\"wall_seconds\":[^,}]*");
  return std::regex_replace(line, kWall, "\"wall_seconds\":0");
}

RunArtifacts run_e16_quick(int threads) {
#if defined(RADIO_HAVE_OPENMP)
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
  ExperimentConfig config;
  config.trials = 2;
  config.seed = 20250808;
  config.quick = true;
  const RunRecord record = run_registered_experiment("E16", config);
  RunArtifacts artifacts;
  artifacts.csv = record.result.table.to_csv();
  for (const std::string& line : metrics_lines(record))
    artifacts.metrics.push_back(scrub_wall_seconds(line));
  return artifacts;
}

class StreamDeterminism : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(RADIO_HAVE_OPENMP)
    saved_threads_ = omp_get_max_threads();
#endif
  }
  void TearDown() override {
#if defined(RADIO_HAVE_OPENMP)
    omp_set_num_threads(saved_threads_);
#endif
  }
  int saved_threads_ = 1;
};

TEST_F(StreamDeterminism, E16QuickIsByteIdenticalAcrossThreadCounts) {
  const RunArtifacts serial = run_e16_quick(1);
  const RunArtifacts parallel = run_e16_quick(4);

  EXPECT_EQ(serial.csv, parallel.csv)
      << "E16 CSV differs between OMP_NUM_THREADS=1 and 4 — a stream trial "
         "drew randomness outside its tagged Rng streams or shared state";
  ASSERT_EQ(serial.metrics.size(), parallel.metrics.size());
  for (std::size_t i = 0; i < serial.metrics.size(); ++i)
    EXPECT_EQ(serial.metrics[i], parallel.metrics[i]) << "metrics line " << i;
}

TEST_F(StreamDeterminism, RepeatedRunsAreIdentical) {
  const RunArtifacts a = run_e16_quick(4);
  const RunArtifacts b = run_e16_quick(4);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.metrics, b.metrics);
}

}  // namespace
}  // namespace radio
