#include "analysis/experiment_config.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/parse.hpp"

namespace radio {

ExperimentConfig ExperimentConfig::from_environment(
    const std::string& experiment_id) {
  ExperimentConfig config;
  if (const char* trials = std::getenv("RADIO_TRIALS"))
    config.trials = static_cast<int>(
        parse_int(trials, "RADIO_TRIALS", 1, std::numeric_limits<int>::max())
            .value_or_throw());
  if (const char* seed = std::getenv("RADIO_SEED"))
    config.seed = parse_u64(seed, "RADIO_SEED").value_or_throw();
  if (const char* full = std::getenv("RADIO_FULL")) {
    // Legacy accepted RADIO_FULL= (empty) as "quick"; keep that spelling.
    config.quick =
        *full == '\0' || !parse_bool(full, "RADIO_FULL").value_or_throw();
  }
  if (const char* backend = std::getenv("RADIO_GRAPH_BACKEND")) {
    const auto choice = graph_backend_from_name(backend);
    if (!choice)
      throw std::runtime_error(
          std::string("RADIO_GRAPH_BACKEND: '") + backend +
          "' is not a graph backend (expected auto, csr, bitmap or implicit)");
    config.graph_backend = *choice;
  }
  if (const char* rate = std::getenv("RADIO_RATE")) {
    // Positive finite λ only; 0 would silently mean "driver default".
    config.rate =
        parse_double(rate, "RADIO_RATE", 1e-9, 1e9).value_or_throw();
  }
  if (const char* horizon = std::getenv("RADIO_HORIZON"))
    config.horizon = static_cast<int>(
        parse_int(horizon, "RADIO_HORIZON", 1, 100'000'000).value_or_throw());
  if (const char* dir = std::getenv("RADIO_CSV_DIR"))
    config.csv_path = std::string(dir) + "/" + experiment_id + ".csv";
  return config;
}

void ExperimentResult::note(std::string text) {
  notes.push_back(ExperimentNote{std::move(text), std::nullopt});
}

void ExperimentResult::note_fit(std::string text, ModelFitNote fit) {
  notes.push_back(ExperimentNote{std::move(text), std::move(fit)});
}

std::vector<const ModelFitNote*> ExperimentResult::fits() const {
  std::vector<const ModelFitNote*> out;
  for (const ExperimentNote& n : notes)
    if (n.fit) out.push_back(&*n.fit);
  return out;
}

void ExperimentResult::present(const ExperimentConfig& config) const {
  table.print(id + " — " + title);
  for (const ExperimentNote& n : notes)
    std::printf("  %s\n", n.text.c_str());
  if (!config.csv_path.empty()) {
    if (table.write_csv(config.csv_path))
      std::printf("  [csv written to %s]\n", config.csv_path.c_str());
    else
      std::printf("  [failed to write csv to %s]\n", config.csv_path.c_str());
  }
  std::fflush(stdout);
}

}  // namespace radio
