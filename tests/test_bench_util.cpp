// The shared bench driver's command line and output writers
// (bench/bench_util.h): strict --shard parsing and writers that fail loudly
// instead of leaving a silently missing report behind.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace sysnoise::bench {
namespace {

BenchCli parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench_test");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return parse_cli(static_cast<int>(argv.size()), argv.data(), "test_bench");
}

TEST(BenchCli, ShardTakesTwoStrictIntegers) {
  const BenchCli cli = parse({"--shard", "1/2"});
  EXPECT_EQ(cli.shard_index, 1);
  EXPECT_EQ(cli.shard_count, 2);
  EXPECT_EQ(parse({"--shard", "0/1"}).shard_count, 1);

  for (const char* bad : {"1/2x", "1x/2", "0/99999999999", "99999999999/2",
                          "2/2", "-1/2", "1/0", "+1/2", "1", "1/", "/2",
                          "1/2/3", " 1/2", "1/ 2", ""}) {
    EXPECT_EXIT(parse({"--shard", bad}), testing::ExitedWithCode(2),
                "bad --shard")
        << "accepted --shard \"" << bad << "\"";
  }
}

// Points SYSNOISE_RESULTS_DIR at a fresh directory for one test.
class ResultsDir {
 public:
  ResultsDir()
      : dir_(std::filesystem::temp_directory_path() /
             ("sysnoise_bench_util_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    if (const char* old = std::getenv("SYSNOISE_RESULTS_DIR")) old_ = old;
    ::setenv("SYSNOISE_RESULTS_DIR", dir_.c_str(), 1);
  }
  ~ResultsDir() {
    if (old_.empty())
      ::unsetenv("SYSNOISE_RESULTS_DIR");
    else
      ::setenv("SYSNOISE_RESULTS_DIR", old_.c_str(), 1);
    std::filesystem::remove_all(dir_);
  }
  // Occupy <dir>/<name> with a directory, so opening it for writing fails.
  void block(const std::string& name) const {
    std::filesystem::create_directories(dir_ / name);
  }
  std::filesystem::path path(const std::string& name) const {
    return dir_ / name;
  }

 private:
  std::filesystem::path dir_;
  std::string old_;
};

TEST(BenchWriters, WriteFileReturnsThePathItWrote) {
  const ResultsDir dir;
  EXPECT_EQ(write_file("out.txt", "hello\n"), dir.path("out.txt").string());
  EXPECT_EQ(read_file(dir.path("out.txt").string()), "hello\n");
}

TEST(BenchWriters, UnwritableOutputExitsTwo) {
  const ResultsDir dir;
  BenchCli cli;
  cli.bench = "blocked";
  cli.shard_index = 1;
  cli.shard_count = 2;
  dir.block("out.csv");
  dir.block(cli.plan_file());
  dir.block(cli.shard_file());
  dir.block(cli.jobs_file());

  EXPECT_EXIT(write_file("out.csv", "a,b\n"), testing::ExitedWithCode(2),
              "cannot write .*out.csv");
  EXPECT_EXIT(write_plan_file(cli, {}), testing::ExitedWithCode(2),
              "cannot write .*blocked_plan.json");
  EXPECT_EXIT(write_shard_file(cli, {}), testing::ExitedWithCode(2),
              "cannot write .*blocked_shard_1_of_2.json");
  EXPECT_EXIT(write_jobs_file(cli, {}), testing::ExitedWithCode(2),
              "cannot write .*blocked_jobs.json");
}

}  // namespace
}  // namespace sysnoise::bench
