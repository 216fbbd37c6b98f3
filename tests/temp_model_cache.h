// Points SYSNOISE_CACHE_DIR at a fresh, empty model cache for one test.
#pragma once

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace sysnoise {

class TempModelCache {
 public:
  TempModelCache()
      : dir_(std::filesystem::temp_directory_path() /
             ("sysnoise_factory_cache_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    if (const char* old = std::getenv("SYSNOISE_CACHE_DIR")) old_ = old;
    ::setenv("SYSNOISE_CACHE_DIR", dir_.c_str(), 1);
  }
  ~TempModelCache() {
    if (old_.empty())
      ::unsetenv("SYSNOISE_CACHE_DIR");
    else
      ::setenv("SYSNOISE_CACHE_DIR", old_.c_str(), 1);
    std::filesystem::remove_all(dir_);
  }
  const std::filesystem::path& dir() const { return dir_; }
  std::string bytes(const std::string& name) const {
    std::ifstream f(dir_ / name, std::ios::binary);
    return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
  }

 private:
  std::filesystem::path dir_;
  std::string old_;
};

}  // namespace sysnoise
