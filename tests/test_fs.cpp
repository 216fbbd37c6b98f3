// Atomic file publication (util/fs.h): failures leave nothing behind, and
// concurrent writers to one path never interleave or leak temp files.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "util/fs.h"

namespace sysnoise::util {
namespace {

namespace fs = std::filesystem;

class ScratchDir {
 public:
  ScratchDir()
      : dir_(fs::temp_directory_path() /
             ("sysnoise_fs_" + std::to_string(::getpid()))) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~ScratchDir() { fs::remove_all(dir_); }
  const fs::path& path() const { return dir_; }

 private:
  fs::path dir_;
};

std::string read_all(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

std::vector<std::string> entries(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir))
    names.push_back(e.path().filename().string());
  return names;
}

TEST(WriteFileAtomic, UnwritableParentFailsAndCreatesNothing) {
  const ScratchDir dir;
  const fs::path missing = dir.path() / "missing" / "out.bin";
  EXPECT_FALSE(write_file_atomic(missing.string(), "payload"));
  EXPECT_FALSE(fs::exists(missing.parent_path()));

  const fs::path regular = dir.path() / "regular";
  ASSERT_TRUE(write_file_atomic(regular.string(), "file, not a directory"));
  EXPECT_FALSE(write_file_atomic((regular / "out.bin").string(), "payload"));
  EXPECT_EQ(read_all(regular), "file, not a directory");
  EXPECT_EQ(entries(dir.path()), std::vector<std::string>{"regular"});
}

TEST(WriteFileAtomic, ConcurrentWritersLeaveOneCompletePayloadAndNoTemp) {
  const ScratchDir dir;
  const fs::path path = dir.path() / "shared.bin";
  constexpr int kWriters = 8;
  // Distinct payloads, each large enough that interleaved writes into one
  // shared temp file would show as a mixed or oversized result.
  std::vector<std::string> payloads;
  for (int w = 0; w < kWriters; ++w)
    payloads.push_back(std::string(1 << 16, static_cast<char>('a' + w)) +
                       std::to_string(w));
  std::latch start(kWriters);
  std::vector<std::thread> threads;
  std::vector<char> ok(kWriters, 0);
  for (int w = 0; w < kWriters; ++w)
    threads.emplace_back([&, w] {
      start.arrive_and_wait();
      ok[static_cast<std::size_t>(w)] =
          write_file_atomic(path.string(), payloads[static_cast<std::size_t>(w)]);
    });
  for (std::thread& t : threads) t.join();
  for (int w = 0; w < kWriters; ++w)
    EXPECT_TRUE(ok[static_cast<std::size_t>(w)]) << "writer " << w;
  const std::string got = read_all(path);
  int matches = 0;
  for (const std::string& p : payloads) matches += got == p;
  EXPECT_EQ(matches, 1) << "file holds " << got.size() << " bytes";
  EXPECT_EQ(entries(dir.path()), std::vector<std::string>{"shared.bin"});
}

}  // namespace
}  // namespace sysnoise::util
