#include "analysis/bench_cli.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <stdexcept>

#include "util/parse.hpp"

namespace radio {
namespace {

[[noreturn]] void usage_error(const std::string& what) {
  throw std::runtime_error(what);
}

bool looks_like_experiment_id(const std::string& id) {
  if (id.size() < 2 || (id[0] != 'E' && id[0] != 'e')) return false;
  return std::all_of(id.begin() + 1, id.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

std::string uppercase_id(const std::string& id) {
  std::string out = id;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}

/// Fetches the value of flag `name`, accepting both `--name value` and
/// `--name=value`. `arg` is the current token; `i` advances past a separate
/// value token.
std::string flag_value(const std::string& name, const std::string& arg,
                       const std::vector<std::string>& args, std::size_t& i) {
  const std::string prefix = name + "=";
  if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  if (i + 1 >= args.size()) usage_error(name + " requires a value");
  return args[++i];
}

bool matches_flag(const std::string& arg, const std::string& name) {
  return arg == name || arg.rfind(name + "=", 0) == 0;
}

}  // namespace

std::string lowercase_id(const std::string& id) {
  std::string out = id;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

BenchCommand parse_bench_command(const std::vector<std::string>& args) {
  BenchCommand command;
  if (args.empty()) return command;  // kHelp

  const std::string& verb = args[0];
  if (verb == "help" || verb == "--help" || verb == "-h") return command;
  if (verb == "list") {
    if (args.size() > 1) usage_error("list takes no arguments");
    command.action = BenchCommand::Action::kList;
    return command;
  }
  if (verb != "run")
    usage_error("unknown command '" + verb + "' (expected list or run)");

  command.action = BenchCommand::Action::kRun;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--all") {
      command.all = true;
    } else if (matches_flag(arg, "--trials")) {
      const std::string value = flag_value("--trials", arg, args, i);
      command.trials = static_cast<int>(
          parse_int(value, "--trials", 1, std::numeric_limits<int>::max())
              .value_or_throw());
    } else if (matches_flag(arg, "--seed")) {
      const std::string value = flag_value("--seed", arg, args, i);
      command.seed = parse_u64(value, "--seed").value_or_throw();
    } else if (arg == "--full") {
      command.full = true;
    } else if (arg == "--quick") {
      command.full = false;
    } else if (matches_flag(arg, "--rate")) {
      const std::string value = flag_value("--rate", arg, args, i);
      command.rate = parse_double(value, "--rate", 1e-9, 1e9).value_or_throw();
    } else if (matches_flag(arg, "--horizon")) {
      const std::string value = flag_value("--horizon", arg, args, i);
      command.horizon = static_cast<int>(
          parse_int(value, "--horizon", 1, 100'000'000).value_or_throw());
    } else if (matches_flag(arg, "--graph-backend")) {
      const std::string value = flag_value("--graph-backend", arg, args, i);
      const auto choice = graph_backend_from_name(value);
      if (!choice)
        usage_error("--graph-backend: '" + value +
                    "' is not a graph backend (expected auto, csr, bitmap or "
                    "implicit)");
      command.graph_backend = *choice;
    } else if (matches_flag(arg, "--out")) {
      command.out_dir = flag_value("--out", arg, args, i);
      if (command.out_dir.empty()) usage_error("--out requires a directory");
    } else if (matches_flag(arg, "--csv")) {
      command.csv_dir = flag_value("--csv", arg, args, i);
      if (command.csv_dir.empty()) usage_error("--csv requires a directory");
    } else if (arg.rfind("--", 0) == 0) {
      usage_error("unknown flag '" + arg + "'");
    } else if (looks_like_experiment_id(arg)) {
      command.ids.push_back(uppercase_id(arg));
    } else {
      usage_error("'" + arg + "' is not an experiment id (expected E1…E18)");
    }
  }
  if (command.ids.empty() && !command.all)
    usage_error("run requires experiment ids or --all");
  if (!command.ids.empty() && command.all)
    usage_error("pass either explicit ids or --all, not both");
  return command;
}

ExperimentConfig config_for_run(const BenchCommand& command,
                                const std::string& id) {
  const std::string lower = lowercase_id(id);
  ExperimentConfig config = ExperimentConfig::from_environment(lower);
  if (command.trials) config.trials = *command.trials;
  if (command.seed) config.seed = *command.seed;
  if (command.full) config.quick = !*command.full;
  if (command.graph_backend) config.graph_backend = *command.graph_backend;
  if (command.rate) config.rate = *command.rate;
  if (command.horizon) config.horizon = *command.horizon;
  if (!command.csv_dir.empty())
    config.csv_path = command.csv_dir + "/" + lower + ".csv";
  else if (!command.out_dir.empty())
    config.csv_path = command.out_dir + "/" + lower + ".csv";
  return config;
}

std::string bench_usage() {
  return
      "radio_bench — unified experiment runner (E1…E18)\n"
      "\n"
      "Usage:\n"
      "  radio_bench list                      list registered experiments\n"
      "  radio_bench run <ids...> [flags]      run selected experiments\n"
      "  radio_bench run --all [flags]         run every experiment\n"
      "\n"
      "Flags (override RADIO_* environment variables):\n"
      "  --trials N     Monte-Carlo trials per table row   (RADIO_TRIALS, 16)\n"
      "  --seed S       base RNG seed                      (RADIO_SEED, 42)\n"
      "  --full         large n grids                      (RADIO_FULL=1)\n"
      "  --quick        small n grids (default)\n"
      "  --graph-backend auto|csr|bitmap|implicit\n"
      "                 instance representation      (RADIO_GRAPH_BACKEND,\n"
      "                 auto). auto picks per instance via the cost model;\n"
      "                 implicit switches backend-aware drivers (E2) to the\n"
      "                 giant-n on-demand sampler\n"
      "  --rate L       streaming arrival rate λ, msgs/round (RADIO_RATE).\n"
      "                 E16–E18 only: pins the λ grid to one rate\n"
      "  --horizon R    streaming wall rounds per trial    (RADIO_HORIZON)\n"
      "                 E16–E18 only: overrides the driver's horizon\n"
      "  --out DIR      write CSVs, per-experiment manifests (<id>.manifest\n"
      "                 .json) and a metrics.jsonl stream into DIR\n"
      "  --csv DIR      write CSVs only, legacy RADIO_CSV_DIR layout\n"
      "\n"
      "Tables print to stdout exactly as the legacy bench_e* binaries print\n"
      "them; runner progress goes to stderr. See docs/experiments.md.\n";
}

}  // namespace radio
