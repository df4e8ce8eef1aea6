// radio_bench CLI parsing and config layering: defaults < RADIO_* env vars
// < CLI flags, with the CSV destination precedence --csv > --out >
// RADIO_CSV_DIR documented in docs/experiments.md.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/bench_cli.hpp"

namespace radio {
namespace {

void clear_radio_env() {
  ::unsetenv("RADIO_TRIALS");
  ::unsetenv("RADIO_SEED");
  ::unsetenv("RADIO_FULL");
  ::unsetenv("RADIO_CSV_DIR");
  ::unsetenv("RADIO_GRAPH_BACKEND");
  ::unsetenv("RADIO_RATE");
  ::unsetenv("RADIO_HORIZON");
}

class BenchCliTest : public ::testing::Test {
 protected:
  void SetUp() override { clear_radio_env(); }
  void TearDown() override { clear_radio_env(); }
};

TEST_F(BenchCliTest, NoArgsMeansHelp) {
  EXPECT_EQ(parse_bench_command({}).action, BenchCommand::Action::kHelp);
  EXPECT_EQ(parse_bench_command({"--help"}).action,
            BenchCommand::Action::kHelp);
  EXPECT_EQ(parse_bench_command({"help"}).action, BenchCommand::Action::kHelp);
}

TEST_F(BenchCliTest, ParsesList) {
  EXPECT_EQ(parse_bench_command({"list"}).action, BenchCommand::Action::kList);
  EXPECT_THROW(parse_bench_command({"list", "extra"}), std::runtime_error);
}

TEST_F(BenchCliTest, ParsesRunWithIdsAndFlags) {
  const BenchCommand command = parse_bench_command(
      {"run", "E3", "e7", "--trials", "32", "--seed", "7", "--full", "--out",
       "results/"});
  EXPECT_EQ(command.action, BenchCommand::Action::kRun);
  ASSERT_EQ(command.ids.size(), 2u);
  EXPECT_EQ(command.ids[0], "E3");
  EXPECT_EQ(command.ids[1], "E7");  // lowercase input is canonicalized
  EXPECT_FALSE(command.all);
  ASSERT_TRUE(command.trials.has_value());
  EXPECT_EQ(*command.trials, 32);
  ASSERT_TRUE(command.seed.has_value());
  EXPECT_EQ(*command.seed, 7u);
  ASSERT_TRUE(command.full.has_value());
  EXPECT_TRUE(*command.full);
  EXPECT_EQ(command.out_dir, "results/");
}

TEST_F(BenchCliTest, ParsesEqualsSyntaxAndAll) {
  const BenchCommand command = parse_bench_command(
      {"run", "--all", "--trials=4", "--seed=99", "--quick", "--csv=/tmp/x"});
  EXPECT_TRUE(command.all);
  EXPECT_TRUE(command.ids.empty());
  EXPECT_EQ(*command.trials, 4);
  EXPECT_EQ(*command.seed, 99u);
  EXPECT_FALSE(*command.full);
  EXPECT_EQ(command.csv_dir, "/tmp/x");
}

TEST_F(BenchCliTest, RejectsMalformedNumericFlagsWithDiagnostics) {
  // --trials=abc used to become atoi garbage; now every numeric flag parses
  // strictly and the diagnostic names the flag and the offending value.
  for (const char* bad : {"abc", "-3", "0", "1.5", "16x", ""}) {
    try {
      parse_bench_command({"run", "E1", std::string("--trials=") + bad});
      FAIL() << "--trials=" << bad << " should be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("--trials"), std::string::npos);
    }
  }
  try {
    parse_bench_command({"run", "E1", "--seed", "banana"});
    FAIL() << "--seed banana should be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--seed"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'banana'"), std::string::npos);
  }
  // Overflow is an error, not a wrap.
  EXPECT_THROW(parse_bench_command({"run", "E1", "--trials", "3000000000"}),
               std::runtime_error);
  EXPECT_THROW(
      parse_bench_command({"run", "E1", "--seed", "18446744073709551616"}),
      std::runtime_error);
}

TEST_F(BenchCliTest, RejectsMalformedEnvironmentValues) {
  // Garbage RADIO_* values reject with a diagnostic instead of silently
  // clamping (RADIO_TRIALS=abc used to run with trials=1).
  const BenchCommand command = parse_bench_command({"run", "E1"});
  ::setenv("RADIO_TRIALS", "abc", 1);
  try {
    config_for_run(command, "E1");
    FAIL() << "RADIO_TRIALS=abc should be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("RADIO_TRIALS"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'abc'"), std::string::npos);
  }
  ::setenv("RADIO_TRIALS", "0", 1);
  EXPECT_THROW(config_for_run(command, "E1"), std::runtime_error);
  ::setenv("RADIO_TRIALS", "-4", 1);
  EXPECT_THROW(config_for_run(command, "E1"), std::runtime_error);
  ::unsetenv("RADIO_TRIALS");

  ::setenv("RADIO_SEED", "12monkeys", 1);
  EXPECT_THROW(config_for_run(command, "E1"), std::runtime_error);
  ::unsetenv("RADIO_SEED");

  ::setenv("RADIO_FULL", "banana", 1);
  EXPECT_THROW(config_for_run(command, "E1"), std::runtime_error);
  ::unsetenv("RADIO_FULL");
}

TEST_F(BenchCliTest, EnvBoolAndEmptySpellingsKeepLegacyMeaning) {
  const BenchCommand command = parse_bench_command({"run", "E1"});
  ::setenv("RADIO_FULL", "", 1);  // legacy: empty means quick
  EXPECT_TRUE(config_for_run(command, "E1").quick);
  ::setenv("RADIO_FULL", "0", 1);
  EXPECT_TRUE(config_for_run(command, "E1").quick);
  ::setenv("RADIO_FULL", "1", 1);
  EXPECT_FALSE(config_for_run(command, "E1").quick);
  ::setenv("RADIO_FULL", "true", 1);
  EXPECT_FALSE(config_for_run(command, "E1").quick);
  ::unsetenv("RADIO_FULL");
}

TEST_F(BenchCliTest, RejectsMalformedCommands) {
  EXPECT_THROW(parse_bench_command({"frobnicate"}), std::runtime_error);
  EXPECT_THROW(parse_bench_command({"run"}), std::runtime_error);
  EXPECT_THROW(parse_bench_command({"run", "--trials", "3"}),
               std::runtime_error);  // no ids, no --all
  EXPECT_THROW(parse_bench_command({"run", "E1", "--all"}),
               std::runtime_error);  // both forms
  EXPECT_THROW(parse_bench_command({"run", "E1", "--trials"}),
               std::runtime_error);  // missing value
  EXPECT_THROW(parse_bench_command({"run", "E1", "--trials", "0"}),
               std::runtime_error);
  EXPECT_THROW(parse_bench_command({"run", "E1", "--seed", "banana"}),
               std::runtime_error);
  EXPECT_THROW(parse_bench_command({"run", "E1", "--wat"}),
               std::runtime_error);
  EXPECT_THROW(parse_bench_command({"run", "notanid"}), std::runtime_error);
}

TEST_F(BenchCliTest, ConfigDefaultsWithoutEnvOrFlags) {
  const BenchCommand command = parse_bench_command({"run", "E1"});
  const ExperimentConfig config = config_for_run(command, "E1");
  EXPECT_EQ(config.trials, 16);
  EXPECT_EQ(config.seed, 42u);
  EXPECT_TRUE(config.quick);
  EXPECT_TRUE(config.csv_path.empty());
}

TEST_F(BenchCliTest, EnvVarsApplyWhenNoFlags) {
  ::setenv("RADIO_TRIALS", "5", 1);
  ::setenv("RADIO_SEED", "123", 1);
  ::setenv("RADIO_FULL", "1", 1);
  ::setenv("RADIO_CSV_DIR", "/tmp/envcsv", 1);
  const BenchCommand command = parse_bench_command({"run", "E10"});
  const ExperimentConfig config = config_for_run(command, "E10");
  EXPECT_EQ(config.trials, 5);
  EXPECT_EQ(config.seed, 123u);
  EXPECT_FALSE(config.quick);
  EXPECT_EQ(config.csv_path, "/tmp/envcsv/e10.csv");
}

TEST_F(BenchCliTest, CliFlagsTakePrecedenceOverEnv) {
  ::setenv("RADIO_TRIALS", "5", 1);
  ::setenv("RADIO_SEED", "123", 1);
  ::setenv("RADIO_FULL", "1", 1);
  ::setenv("RADIO_CSV_DIR", "/tmp/envcsv", 1);
  const BenchCommand command = parse_bench_command(
      {"run", "E10", "--trials", "9", "--seed", "7", "--quick", "--out",
       "/tmp/outdir"});
  const ExperimentConfig config = config_for_run(command, "E10");
  EXPECT_EQ(config.trials, 9);
  EXPECT_EQ(config.seed, 7u);
  EXPECT_TRUE(config.quick);
  // --out redirects the CSV away from RADIO_CSV_DIR, legacy file name kept.
  EXPECT_EQ(config.csv_path, "/tmp/outdir/e10.csv");
}

TEST_F(BenchCliTest, CsvDirBeatsOutDirForCsvPlacement) {
  const BenchCommand command = parse_bench_command(
      {"run", "E2", "--csv", "/tmp/csvdir", "--out", "/tmp/outdir"});
  const ExperimentConfig config = config_for_run(command, "E2");
  EXPECT_EQ(config.csv_path, "/tmp/csvdir/e2.csv");
}

TEST_F(BenchCliTest, RejectsBatchAsUnknownFlag) {
  // The lane width is not a setting: experiments size their batches from
  // the work they batch, so there is no lane-width flag to parse.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"run", "E7", "--batch", "8"},
        std::vector<std::string>{"run", "E7", "--batch=8"}}) {
    try {
      parse_bench_command(args);
      FAIL() << "--batch should be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown flag '--batch"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(bench_usage().find("--batch"), std::string::npos);
}

TEST_F(BenchCliTest, StreamingFlagsLayerLikeEveryOtherNumericFlag) {
  // Defaults < RADIO_RATE/RADIO_HORIZON < --rate/--horizon. The defaults
  // are 0 ("driver picks its own grid/horizon"), so a pinned value is
  // always an explicit override.
  const BenchCommand bare = parse_bench_command({"run", "E16"});
  EXPECT_EQ(config_for_run(bare, "E16").rate, 0.0);
  EXPECT_EQ(config_for_run(bare, "E16").horizon, 0);

  ::setenv("RADIO_RATE", "0.05", 1);
  ::setenv("RADIO_HORIZON", "500", 1);
  EXPECT_DOUBLE_EQ(config_for_run(bare, "E16").rate, 0.05);
  EXPECT_EQ(config_for_run(bare, "E16").horizon, 500);

  const BenchCommand flagged = parse_bench_command(
      {"run", "E16", "--rate", "0.125", "--horizon", "2500"});
  EXPECT_DOUBLE_EQ(config_for_run(flagged, "E16").rate, 0.125);
  EXPECT_EQ(config_for_run(flagged, "E16").horizon, 2500);
  ::unsetenv("RADIO_RATE");
  ::unsetenv("RADIO_HORIZON");

  EXPECT_DOUBLE_EQ(*parse_bench_command({"run", "E16", "--rate=0.01"}).rate,
                   0.01);
  EXPECT_EQ(*parse_bench_command({"run", "E16", "--horizon=100"}).horizon,
            100);
}

TEST_F(BenchCliTest, RejectsMalformedStreamingValues) {
  for (const char* bad : {"banana", "0", "-0.5", "", "0.1x"}) {
    try {
      parse_bench_command({"run", "E16", std::string("--rate=") + bad});
      FAIL() << "--rate=" << bad << " should be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("--rate"), std::string::npos);
    }
  }
  for (const char* bad : {"soon", "0", "-100", "", "1e3"}) {
    try {
      parse_bench_command({"run", "E16", std::string("--horizon=") + bad});
      FAIL() << "--horizon=" << bad << " should be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("--horizon"), std::string::npos);
    }
  }
  const BenchCommand command = parse_bench_command({"run", "E16"});
  ::setenv("RADIO_RATE", "fast", 1);
  try {
    config_for_run(command, "E16");
    FAIL() << "RADIO_RATE=fast should be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("RADIO_RATE"), std::string::npos);
  }
  ::unsetenv("RADIO_RATE");
  ::setenv("RADIO_HORIZON", "forever", 1);
  EXPECT_THROW(config_for_run(command, "E16"), std::runtime_error);
  ::unsetenv("RADIO_HORIZON");
}

TEST_F(BenchCliTest, GraphBackendFlagLayersLikeEveryOtherFlag) {
  // Defaults < RADIO_GRAPH_BACKEND < --graph-backend.
  const BenchCommand bare = parse_bench_command({"run", "E2"});
  EXPECT_EQ(config_for_run(bare, "E2").graph_backend,
            GraphBackendChoice::kAuto);

  ::setenv("RADIO_GRAPH_BACKEND", "bitmap", 1);
  EXPECT_EQ(config_for_run(bare, "E2").graph_backend,
            GraphBackendChoice::kBitmap);

  const BenchCommand flagged =
      parse_bench_command({"run", "E2", "--graph-backend", "implicit"});
  EXPECT_EQ(config_for_run(flagged, "E2").graph_backend,
            GraphBackendChoice::kImplicit);
  ::unsetenv("RADIO_GRAPH_BACKEND");

  EXPECT_EQ(*parse_bench_command({"run", "E2", "--graph-backend=csr"})
                 .graph_backend,
            GraphBackendChoice::kCsr);
}

TEST_F(BenchCliTest, RejectsMalformedGraphBackendValues) {
  // Backend names parse strictly: junk, case variants and trailing
  // characters are diagnostics naming the flag, never a silent default.
  for (const char* bad : {"banana", "AUTO", "csr ", "implicit7", ""}) {
    try {
      parse_bench_command(
          {"run", "E2", std::string("--graph-backend=") + bad});
      FAIL() << "--graph-backend=" << bad << " should be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("--graph-backend"),
                std::string::npos);
    }
  }
  const BenchCommand command = parse_bench_command({"run", "E2"});
  ::setenv("RADIO_GRAPH_BACKEND", "dense", 1);
  try {
    config_for_run(command, "E2");
    FAIL() << "RADIO_GRAPH_BACKEND=dense should be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("RADIO_GRAPH_BACKEND"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'dense'"), std::string::npos);
  }
  ::unsetenv("RADIO_GRAPH_BACKEND");
}

TEST_F(BenchCliTest, LowercaseIdHelper) {
  EXPECT_EQ(lowercase_id("E10"), "e10");
  EXPECT_EQ(lowercase_id("e3"), "e3");
}

TEST_F(BenchCliTest, UsageMentionsTheCommands) {
  const std::string usage = bench_usage();
  EXPECT_NE(usage.find("radio_bench list"), std::string::npos);
  EXPECT_NE(usage.find("--trials"), std::string::npos);
  EXPECT_NE(usage.find("RADIO_TRIALS"), std::string::npos);
}

}  // namespace
}  // namespace radio
