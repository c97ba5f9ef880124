// End-to-end tests of the atf_tune command-line tool: spawns the real
// binary against shell-script "applications" and checks output, exit codes
// and constraint handling. The binary path is injected by CMake via
// ATF_TUNE_BINARY.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "atf/service/service.hpp"

#ifndef ATF_TUNE_BINARY
#error "ATF_TUNE_BINARY must be defined by the build system"
#endif

namespace {

struct command_result {
  int exit_code;
  std::string stdout_text;  ///< stdout, followed by stderr if captured
};

command_result run_command(const std::string& command,
                           bool capture_stderr = false) {
  const std::string with_redirect =
      command + (capture_stderr ? " 2>&1" : " 2>/dev/null");
  FILE* pipe = popen(with_redirect.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 256> buffer{};
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  const int status = pclose(pipe);
  return {WEXITSTATUS(status), output};
}

class AtfTuneCliTest : public ::testing::Test {
protected:
  void SetUp() override {
    // Per-test directory: ctest runs every test case as its own process,
    // so a fixture-shared path races under parallel ctest.
    dir_ = ::testing::TempDir() + "atf_tune_cli_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_EQ(std::system(("mkdir -p '" + dir_ + "'").c_str()), 0);
    source_ = dir_ + "/app.txt";
    compile_ = dir_ + "/compile.sh";
    run_ = dir_ + "/run.sh";
    log_ = dir_ + "/cost.log";
    cfg_ = dir_ + "/cfg.sh";
    write(source_, "placeholder\n", false);
    // compile.sh: <source> NAME=VALUE... -> shell-sourceable config.
    write(compile_,
          "#!/bin/sh\nshift\nrm -f '" + cfg_ + "'\n"
          "for kv in \"$@\"; do echo \"$kv\" >> '" + cfg_ + "'; done\n",
          true);
    // run.sh: cost = (X-12)^2 + Y, written to the log file.
    write(run_,
          "#!/bin/sh\n. '" + cfg_ + "'\n"
          "echo \"$(( (X-12)*(X-12) + Y ))\" > '" + log_ + "'\n",
          true);
  }

  void write(const std::string& path, const std::string& content,
             bool executable) {
    {
      std::ofstream out(path);
      out << content;
    }
    if (executable) {
      ASSERT_EQ(std::system(("chmod +x '" + path + "'").c_str()), 0);
    }
  }

  [[nodiscard]] std::string base_command() const {
    return std::string(ATF_TUNE_BINARY) + " --source '" + source_ +
           "' --compile '" + compile_ + "' --run '" + run_ +
           "' --log-file '" + log_ + "'";
  }

  std::string dir_, source_, compile_, run_, log_, cfg_;
};

TEST_F(AtfTuneCliTest, ExhaustiveFindsTheOptimum) {
  const auto result = run_command(
      base_command() +
      " --param 'X=interval:1:20' --param 'Y=set:0,5,10'");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.stdout_text.find("X=12"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("Y=0"), std::string::npos);
}

TEST_F(AtfTuneCliTest, ConstraintClausesAreHonored) {
  // X must be a power of two: 8 and 16 tie at (X-12)^2 = 16; exhaustive
  // search keeps the first optimum it sees, which is 8.
  const auto result = run_command(
      base_command() +
      " --param 'X=interval:1:20:pow2' --param 'Y=set:0'");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.stdout_text.find("X=8"), std::string::npos)
      << result.stdout_text;
}

TEST_F(AtfTuneCliTest, CrossParameterConstraint) {
  // Y must divide X; with X fixed to 12 the space only holds divisors.
  const auto result = run_command(
      base_command() +
      " --param 'X=set:12' --param 'Y=interval:5:12:divides=X'");
  EXPECT_EQ(result.exit_code, 0);
  // Divisors of 12 in 5..12: {6, 12}; the cost prefers Y=6.
  EXPECT_NE(result.stdout_text.find("Y=6"), std::string::npos)
      << result.stdout_text;
}

TEST_F(AtfTuneCliTest, AnnealingWithBudgetRuns) {
  const auto result = run_command(
      base_command() +
      " --param 'X=interval:1:50' --param 'Y=set:0,1'"
      " --technique annealing --evaluations 40 --seed 7");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.stdout_text.find("X="), std::string::npos);
}

TEST_F(AtfTuneCliTest, SurrogateWithBudgetRuns) {
  const auto result = run_command(
      base_command() +
      " --param 'X=interval:1:50' --param 'Y=set:0,1'"
      " --technique surrogate --evaluations 40 --seed 7");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.stdout_text.find("X="), std::string::npos);
}

TEST_F(AtfTuneCliTest, RemovedStorageFlagsAreUnknownOptions) {
  // The space has one representation; scripts still passing the old
  // storage flags fail loudly instead of silently tuning something else.
  for (const char* flag : {" --space-storage dense", " --chunk-cache-mb 8"}) {
    const auto result = run_command(
        base_command() + " --param 'X=interval:1:4'" + flag,
        /*capture_stderr=*/true);
    EXPECT_EQ(result.exit_code, 1) << flag;
    EXPECT_NE(result.stdout_text.find("unknown or incomplete option"),
              std::string::npos)
        << flag << ": " << result.stdout_text;
  }
}

TEST_F(AtfTuneCliTest, UsageTextOmitsTheRemovedStorageFlags) {
  const auto result =
      run_command(std::string(ATF_TUNE_BINARY), /*capture_stderr=*/true);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.stdout_text.find("usage:"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("--technique"), std::string::npos);
  EXPECT_EQ(result.stdout_text.find("--space-storage"), std::string::npos)
      << result.stdout_text;
  EXPECT_EQ(result.stdout_text.find("--chunk-cache-mb"), std::string::npos)
      << result.stdout_text;
}

TEST_F(AtfTuneCliTest, EmptySpaceExitsWithCode2) {
  const auto result = run_command(
      base_command() +
      " --param 'X=set:7' --param 'Y=interval:2:3:divides=X'");
  EXPECT_EQ(result.exit_code, 2);
}

TEST_F(AtfTuneCliTest, UsageErrorsExitWithCode1) {
  EXPECT_EQ(run_command(std::string(ATF_TUNE_BINARY)).exit_code, 1);
  EXPECT_EQ(run_command(base_command() + " --param 'X=garbage:1'").exit_code,
            1);
  EXPECT_EQ(run_command(base_command() +
                        " --param 'X=interval:1:4' --technique warp")
                .exit_code,
            1);
  EXPECT_EQ(
      run_command(base_command() +
                  " --param 'Y=interval:1:4:divides=UNDECLARED'")
          .exit_code,
      1);
}

TEST_F(AtfTuneCliTest, GarbageNumericFlagsAreRejected) {
  // Regression: --seconds used strtod(value, nullptr), so "--seconds abc"
  // silently became 0.0 and the tune exited immediately having done
  // nothing. Every numeric flag now end-pointer-validates and names the
  // offending flag on stderr.
  const std::string params = " --param 'X=interval:1:4' --param 'Y=set:0'";
  const char* bad[] = {
      " --seconds abc",        " --seconds ''",       " --seconds -1",
      " --seconds 1.5x",       " --evaluations 12abc", " --evaluations ''",
      " --evaluations -3",     " --evaluations 1.5",  " --seed xyz",
      " --seed 0x10",
      // strtoull skips leading whitespace before the sign and wraps the
      // negative value to 2^64-3 / 2^64-1; the first character must be a
      // digit. --seconds bounds the tune should the count be accepted.
      " --evaluations ' -3' --seconds 2", " --seed ' -1'",
  };
  for (const char* flag : bad) {
    EXPECT_EQ(run_command(base_command() + params + flag).exit_code, 1)
        << flag;
  }
}

TEST_F(AtfTuneCliTest, ValidNumericFlagFormsAreAccepted) {
  const std::string params = " --param 'X=interval:10:14' --param 'Y=set:0'";
  // Fractional and scientific seconds. The abort conditions are OR-ed, so
  // --evaluations ends the tune early; a mis-parsed --seconds still exits 1.
  EXPECT_EQ(run_command(base_command() + params +
                        " --seconds 30.5 --evaluations 20")
                .exit_code,
            0);
  EXPECT_EQ(run_command(base_command() + params +
                        " --seconds 1e2 --evaluations 20")
                .exit_code,
            0);
  EXPECT_EQ(run_command(base_command() + params +
                        " --evaluations 100 --seed 42")
                .exit_code,
            0);
}

TEST_F(AtfTuneCliTest, BadParamBoundsNameTheValue) {
  // Interval bounds and set values go through the same strict parser.
  EXPECT_EQ(
      run_command(base_command() + " --param 'X=interval:1:4x'").exit_code,
      1);
  EXPECT_EQ(
      run_command(base_command() + " --param 'X=set:1,two,3'").exit_code, 1);
}

TEST_F(AtfTuneCliTest, ListKernelsPrintsTheRegistryTable) {
  const auto result =
      run_command(std::string(ATF_TUNE_BINARY) + " --list-kernels");
  EXPECT_EQ(result.exit_code, 0);
  for (const char* family : {"saxpy", "reduce", "xgemm", "conv2d",
                             "stencil2d", "spmv", "batched_gemm"}) {
    EXPECT_NE(result.stdout_text.find(family), std::string::npos)
        << family << " missing from:\n" << result.stdout_text;
  }
}

TEST_F(AtfTuneCliTest, RegistryKernelTunesEndToEnd) {
  const auto result = run_command(
      std::string(ATF_TUNE_BINARY) +
      " --kernel stencil2d --size 20x20x2 --device K20m"
      " --technique annealing --evaluations 50 --seed 3");
  EXPECT_EQ(result.exit_code, 0) << result.stdout_text;
  // The best configuration is printed as NAME=VALUE lines.
  for (const char* knob : {"TX=", "TY=", "LX=", "LY=", "VEC="}) {
    EXPECT_NE(result.stdout_text.find(knob), std::string::npos)
        << knob << " missing from:\n" << result.stdout_text;
  }
}

TEST_F(AtfTuneCliTest, RegistryKernelIsDeterministicForAFixedSeed) {
  const std::string command =
      std::string(ATF_TUNE_BINARY) +
      " --kernel spmv --size 256x8 --device Iris"
      " --technique annealing --evaluations 40 --seed 11";
  const auto first = run_command(command);
  const auto second = run_command(command);
  EXPECT_EQ(first.exit_code, 0);
  EXPECT_EQ(first.stdout_text, second.stdout_text);
}

TEST_F(AtfTuneCliTest, UnknownKernelExitsWithCode2AndListsTheRegistry) {
  const auto result =
      run_command(std::string(ATF_TUNE_BINARY) + " --kernel conv9d");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_EQ(run_command(std::string(ATF_TUNE_BINARY) +
                        " --kernel stencil2d --size 40x40")
                .exit_code,
            1);  // wrong arity for HxWxR
}

TEST_F(AtfTuneCliTest, NegativeSizeIsRejectedAsAnInvalidComponent) {
  const auto result = run_command(std::string(ATF_TUNE_BINARY) +
                                      " --kernel saxpy --size -3"
                                      " --technique random --evaluations 5",
                                  /*capture_stderr=*/true);
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.stdout_text.find("invalid size component"),
            std::string::npos)
      << result.stdout_text;
}

TEST_F(AtfTuneCliTest, OverflowingSizeIsRejectedAsAnInvalidComponent) {
  // One past 2^64-1: stoull throws out_of_range, which must surface as the
  // same named error as a malformed component.
  const auto result = run_command(std::string(ATF_TUNE_BINARY) +
                                      " --kernel saxpy"
                                      " --size 18446744073709551616"
                                      " --technique random --evaluations 5",
                                  /*capture_stderr=*/true);
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.stdout_text.find(
                "invalid size component '18446744073709551616'"),
            std::string::npos)
      << result.stdout_text;
}

TEST_F(AtfTuneCliTest, ServeModeRequiresAQueryOrStats) {
  EXPECT_EQ(run_command(std::string(ATF_TUNE_BINARY) +
                        " --serve /tmp/nonexistent.sock")
                .exit_code,
            1);
  // With a query but no daemon listening: connection error, still exit 1.
  EXPECT_EQ(run_command(std::string(ATF_TUNE_BINARY) +
                        " --serve /tmp/nonexistent.sock --query 8x8x8")
                .exit_code,
            1);
}

TEST_F(AtfTuneCliTest, CsvLogIsWritten) {
  const std::string csv = dir_ + "/tuning.csv";
  const auto result = run_command(base_command() +
                                  " --param 'X=interval:10:14'"
                                  " --param 'Y=set:0' --csv '" + csv + "'");
  EXPECT_EQ(result.exit_code, 0);
  std::ifstream in(csv);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "evaluation,elapsed_ns,index,X,Y,cost,valid,run,source");
  int rows = 0;
  for (std::string line; std::getline(in, line);) {
    ++rows;
  }
  EXPECT_EQ(rows, 5);
}

/// The journal files (not the directory entries "." and "..") under `dir`.
std::vector<std::string> journal_files(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".jsonl") {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST_F(AtfTuneCliTest, SizeGridModeTunesAndPersistsDatabase) {
  // GEMM grid mode needs no --source/--compile/--run: it tunes the built-in
  // kernel over the size grid into one journal per size.
  const std::string journals = dir_ + "/journals";
  const auto result = run_command(std::string(ATF_TUNE_BINARY) +
                                  " --size-grid '12,24x12x12' --journal-dir '" +
                                  journals + "' --evaluations 60 --seed 5");
  EXPECT_EQ(result.exit_code, 0) << result.stdout_text;
  // One stdout line per grid point: SIG=-DKWID=... define string.
  EXPECT_NE(result.stdout_text.find("12x12x12="), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("24x12x12="), std::string::npos);
  EXPECT_NE(result.stdout_text.find("WGD="), std::string::npos);

  // Named by the service's per-key file stem, as atf_served reads them.
  EXPECT_EQ(journal_files(journals),
            (std::vector<std::string>{"xgemm+Tesla%20K20m+12x12x12.jsonl",
                                      "xgemm+Tesla%20K20m+24x12x12.jsonl"}));
}

TEST_F(AtfTuneCliTest, SizeGridModeAccumulatesIntoExistingDatabase) {
  const std::string journals = dir_ + "/journals";
  const std::string base = std::string(ATF_TUNE_BINARY) + " --journal-dir '" +
                           journals + "' --evaluations 60";
  EXPECT_EQ(run_command(base + " --size-grid '12x12x12'").exit_code, 0);
  const auto second = run_command(base + " --size-grid '24x24x12'");
  EXPECT_EQ(second.exit_code, 0);
  // The first run's journal survived the second.
  EXPECT_EQ(journal_files(journals).size(), 2u);
}

TEST_F(AtfTuneCliTest, SizeGridModeRejectsBadInput) {
  const std::string journals = dir_ + "/journals";
  // Missing --journal-dir, malformed grid, unknown device, unknown
  // technique.
  EXPECT_EQ(run_command(std::string(ATF_TUNE_BINARY) +
                        " --size-grid '8x8x8'")
                .exit_code,
            1);
  EXPECT_EQ(run_command(std::string(ATF_TUNE_BINARY) +
                        " --size-grid '8x8' --journal-dir '" + journals + "'")
                .exit_code,
            1);
  EXPECT_EQ(run_command(std::string(ATF_TUNE_BINARY) +
                        " --size-grid '8x8x8' --journal-dir '" + journals +
                        "' --device 'NoSuchAccelerator'")
                .exit_code,
            1);
  EXPECT_EQ(run_command(std::string(ATF_TUNE_BINARY) +
                        " --size-grid '8x8x8' --journal-dir '" + journals +
                        "' --technique banana")
                .exit_code,
            1);
}

TEST_F(AtfTuneCliTest, SizeGridJournalsAreServedAsHits) {
  // Cross-tool: what --size-grid prints is exactly what a tuning service
  // over the same journal directory (atf_served's engine) serves.
  const std::string journals = dir_ + "/journals";
  const auto result = run_command(std::string(ATF_TUNE_BINARY) +
                                  " --size-grid '16,32x16x16' --journal-dir '" +
                                  journals + "' --evaluations 50");
  ASSERT_EQ(result.exit_code, 0);

  atf::service::tuning_service service(
      {.journal_dir = journals},
      [](const atf::service::service_key&, const std::string&) {
        return false;
      });
  EXPECT_EQ(service.load(), 2u);

  std::istringstream lines(result.stdout_text);
  std::size_t checked = 0;
  for (std::string line; std::getline(lines, line);) {
    const auto eq = line.find('=');
    ASSERT_NE(eq, std::string::npos) << line;
    atf::service::request get;
    get.operation = atf::service::request::op::get;
    get.key = {"xgemm", "Tesla K20m", line.substr(0, eq)};
    const auto reply = atf::service::parse_get_reply(
        service.handle_line(atf::service::serialize_request(get)));
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_TRUE(reply.hit) << line;
    // The printed params are the define string "-DNAME=VALUE ..." in name
    // order; rebuild it from the served configuration.
    auto config = reply.config;
    std::sort(config.begin(), config.end());
    std::string served;
    for (const auto& [name, value] : config) {
      served += (served.empty() ? "-D" : " -D") + name + "=" + value;
    }
    EXPECT_EQ(served, line.substr(eq + 1)) << line;
    ++checked;
  }
  EXPECT_EQ(checked, 2u);
}

}  // namespace
