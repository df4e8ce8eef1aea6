// Command-line surface of the unified `radio_bench` runner.
//
//   radio_bench list
//   radio_bench run E3 E7 --trials 32 --seed 7 --full --out results/
//   radio_bench run --all
//
// Flags layer over the legacy RADIO_* environment variables: defaults <
// environment < CLI flag (docs/experiments.md has the full table). Parsing
// is a pure function of argv so tests can exercise precedence without
// spawning processes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/experiment_config.hpp"
#include "graph/backend.hpp"

namespace radio {

struct BenchCommand {
  enum class Action { kHelp, kList, kRun };

  Action action = Action::kHelp;
  std::vector<std::string> ids;  ///< canonical uppercase; empty with all=true
  bool all = false;              ///< run every registered experiment

  // CLI overrides; unset fields fall through to RADIO_* env vars / defaults.
  std::optional<int> trials;
  std::optional<std::uint64_t> seed;
  std::optional<bool> full;   ///< --full → true, --quick → false
  /// --graph-backend: auto | csr | bitmap | implicit (graph/backend.hpp)
  std::optional<GraphBackendChoice> graph_backend;
  /// --rate: Poisson arrival rate λ for the streaming experiments E16–E18
  /// (positive, pins the drivers' λ grid to one rate)
  std::optional<double> rate;
  /// --horizon: wall rounds per streaming trial (E16–E18)
  std::optional<int> horizon;

  std::string out_dir;  ///< --out: CSVs + manifests + metrics.jsonl here
  std::string csv_dir;  ///< --csv: CSVs only (legacy RADIO_CSV_DIR shape)
};

/// Parses the arguments after argv[0]. Throws std::runtime_error with a
/// user-facing message on malformed input (unknown flag, missing value,
/// `run` without ids or --all, non-positive --trials, malformed id).
BenchCommand parse_bench_command(const std::vector<std::string>& args);

/// The effective config for one experiment of a `run` command: starts from
/// ExperimentConfig::from_environment (env vars or defaults), then applies
/// the command's overrides. CSV destination precedence:
/// --csv dir > --out dir > RADIO_CSV_DIR > none. `id` is canonical ("E10");
/// CSV files keep the legacy lowercase name (e10.csv).
ExperimentConfig config_for_run(const BenchCommand& command,
                                const std::string& id);

/// Lowercase form of an experiment id, used for legacy-compatible file names.
std::string lowercase_id(const std::string& id);

/// The `radio_bench --help` text.
std::string bench_usage();

}  // namespace radio
