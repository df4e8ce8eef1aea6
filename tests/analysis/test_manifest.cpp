// Run manifests and metrics: the JSON document round-trips through the
// parser with every field intact, and the registry-driven runner path is
// byte-identical to the legacy bench_e* path (same driver, same config ⇒
// same table, CSV and notes) — the compatibility contract DESIGN.md's
// "Observability & provenance" section pins.
#include <gtest/gtest.h>

#include <cstdlib>

#include "analysis/bench_runner.hpp"
#include "analysis/experiments.hpp"
#include "util/json.hpp"

namespace radio {
namespace {

void clear_radio_env() {
  ::unsetenv("RADIO_TRIALS");
  ::unsetenv("RADIO_SEED");
  ::unsetenv("RADIO_FULL");
  ::unsetenv("RADIO_CSV_DIR");
}

RunRecord sample_record() {
  RunRecord record;
  record.id = "EX";
  record.config.trials = 3;
  record.config.seed = 12345678901234567890ull;
  record.config.quick = false;
  record.config.rate = 0.05;
  record.config.horizon = 2500;
  record.config.csv_path = "/tmp/ex.csv";
  record.result.id = "EX";
  record.result.title = "sample experiment";
  record.result.table = Table({"n", "rounds"});
  record.result.table.row().cell(std::uint64_t{1024}).cell(12.5, 1);
  record.result.table.row().cell(std::uint64_t{2048}).cell(14.0, 1);
  record.result.note("a prose note");
  record.result.note_fit(
      "fit: rounds ~= 2.45*ln n + 1.7 (R^2 = 0.97)",
      ModelFitNote{"main", "a*ln n + b",
                   {{"ln n", 2.45}, {"intercept", 1.7}}, 0.97});
  record.wall_seconds = 1.25;
  return record;
}

RunProvenance sample_provenance() {
  RunProvenance provenance;
  provenance.git_describe = "deadbee-dirty";
  provenance.compiler = "gcc 12.2.0";
  provenance.openmp_threads = 8;
  provenance.generated_at = "2026-08-05T12:00:00Z";
  return provenance;
}

TEST(Manifest, RoundTripsThroughJson) {
  const RunRecord record = sample_record();
  const Json manifest = manifest_json(record, sample_provenance());
  // Serialize pretty (as written to disk), parse back, check every field.
  const Json parsed = Json::parse(manifest.dump(2));

  EXPECT_EQ(parsed.at("schema_version").as_int64(), kManifestSchemaVersion);
  EXPECT_EQ(parsed.at("id").as_string(), "EX");
  EXPECT_EQ(parsed.at("title").as_string(), "sample experiment");

  const Json& config = parsed.at("config");
  EXPECT_EQ(config.at("trials").as_int64(), 3);
  EXPECT_EQ(config.at("seed").as_uint64(), 12345678901234567890ull);
  EXPECT_FALSE(config.at("quick").as_bool());
  EXPECT_FALSE(config.contains("batch"));  // lane widths are not config
  EXPECT_DOUBLE_EQ(config.at("rate").as_double(), 0.05);
  EXPECT_EQ(config.at("horizon").as_int64(), 2500);
  EXPECT_EQ(config.at("csv_path").as_string(), "/tmp/ex.csv");

  const Json& provenance = parsed.at("provenance");
  EXPECT_EQ(provenance.at("git").as_string(), "deadbee-dirty");
  EXPECT_EQ(provenance.at("compiler").as_string(), "gcc 12.2.0");
  EXPECT_EQ(provenance.at("openmp_threads").as_int64(), 8);
  EXPECT_EQ(provenance.at("generated_at").as_string(), "2026-08-05T12:00:00Z");

  EXPECT_DOUBLE_EQ(parsed.at("wall_seconds").as_double(), 1.25);

  const Json& table = parsed.at("table");
  EXPECT_EQ(table.at("columns").size(), 2u);
  EXPECT_EQ(table.at("columns").at(0).as_string(), "n");
  EXPECT_EQ(table.at("rows").size(), 2u);
  EXPECT_EQ(table.at("rows").at(0).at(0).as_string(), "1024");
  EXPECT_EQ(table.at("rows").at(1).at(1).as_string(), "14.0");

  ASSERT_EQ(parsed.at("fits").size(), 1u);
  const Json& fit = parsed.at("fits").at(0);
  EXPECT_EQ(fit.at("label").as_string(), "main");
  EXPECT_EQ(fit.at("model").as_string(), "a*ln n + b");
  ASSERT_EQ(fit.at("coefficients").size(), 2u);
  EXPECT_EQ(fit.at("coefficients").at(0).at("term").as_string(), "ln n");
  EXPECT_DOUBLE_EQ(fit.at("coefficients").at(0).at("value").as_double(), 2.45);
  EXPECT_DOUBLE_EQ(fit.at("r_squared").as_double(), 0.97);

  ASSERT_EQ(parsed.at("notes").size(), 2u);
  EXPECT_EQ(parsed.at("notes").at(0).as_string(), "a prose note");
}

TEST(Manifest, MetricsLinesAreOneJsonObjectPerRowPlusSummary) {
  const RunRecord record = sample_record();
  const auto lines = metrics_lines(record);
  ASSERT_EQ(lines.size(), 3u);  // 2 rows + 1 summary
  for (const std::string& line : lines) {
    EXPECT_EQ(line.find('\n'), std::string::npos);  // JSONL: single line
    EXPECT_NO_THROW(Json::parse(line));
  }
  const Json row0 = Json::parse(lines[0]);
  EXPECT_EQ(row0.at("experiment").as_string(), "EX");
  EXPECT_EQ(row0.at("row").as_int64(), 0);
  EXPECT_EQ(row0.at("cells").at("rounds").as_string(), "12.5");
  EXPECT_EQ(row0.at("seed").as_uint64(), 12345678901234567890ull);
  const Json summary = Json::parse(lines.back());
  EXPECT_EQ(summary.at("event").as_string(), "summary");
  EXPECT_EQ(summary.at("rows").as_int64(), 2);
}

TEST(Manifest, RunnerRejectsUnknownId) {
  EXPECT_THROW(run_registered_experiment("E99", ExperimentConfig{}),
               std::runtime_error);
}

// Golden compatibility check: running E10 through the registry-driven
// runner produces byte-identical table, CSV and notes to calling the
// driver function directly with the same config.
TEST(Manifest, GoldenRunnerMatchesLegacyE10) {
  clear_radio_env();
  ExperimentConfig config;
  config.trials = 2;
  config.seed = 7;
  config.quick = true;

  const ExperimentResult legacy = run_e10_model_equivalence(config);
  const RunRecord record = run_registered_experiment("E10", config);

  EXPECT_EQ(record.id, "E10");
  EXPECT_EQ(record.result.id, legacy.id);
  EXPECT_EQ(record.result.title, legacy.title);
  EXPECT_EQ(record.result.table.to_string(), legacy.table.to_string());
  EXPECT_EQ(record.result.table.to_csv(), legacy.table.to_csv());
  ASSERT_EQ(record.result.notes.size(), legacy.notes.size());
  for (std::size_t i = 0; i < legacy.notes.size(); ++i)
    EXPECT_EQ(record.result.notes[i].text, legacy.notes[i].text);
  EXPECT_GT(record.wall_seconds, 0.0);
}

TEST(Manifest, ProvenanceIsPopulated) {
  const RunProvenance provenance = collect_provenance();
  EXPECT_FALSE(provenance.git_describe.empty());
  EXPECT_FALSE(provenance.compiler.empty());
  EXPECT_GE(provenance.openmp_threads, 1);
  // ISO-8601 UTC, e.g. 2026-08-05T12:00:00Z
  ASSERT_EQ(provenance.generated_at.size(), 20u);
  EXPECT_EQ(provenance.generated_at.back(), 'Z');
  EXPECT_EQ(provenance.generated_at[10], 'T');
}

}  // namespace
}  // namespace radio
