#include "core/disk_stage_cache.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/fs.h"
#include "util/json.h"

namespace sysnoise::core {

namespace {

// Bump when the entry layout (or anything the encoded payloads depend on)
// changes incompatibly.
constexpr const char* kFormatTag = "SYSNOISE-STAGE-v1";

std::string read_line(std::istream& in) {
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

bool DiskStageCache::enabled_by_env() {
  const char* env = std::getenv("SYSNOISE_DISK_STAGE_CACHE");
  return env == nullptr || env[0] != '0';
}

std::string DiskStageCache::default_dir() {
  if (const char* env = std::getenv("SYSNOISE_STAGE_CACHE_DIR")) return env;
  if (const char* env = std::getenv("SYSNOISE_CACHE_DIR"))
    return std::string(env) + "/stages";
  return "/tmp/sysnoise_model_cache/stages";
}

DiskStageCache::DiskStageCache(std::string dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

std::string DiskStageCache::entry_path(const std::string& scope,
                                       const std::string& key) const {
  return dir_ + "/" + util::fnv1a64_hex(scope) + "_" + util::fnv1a64_hex(key) +
         ".stage";
}

bool DiskStageCache::load(const std::string& scope, const std::string& key,
                          std::string* bytes) {
  std::ifstream f(entry_path(scope, key), std::ios::binary);
  bool ok = false;
  if (f) {
    // Header: format tag, scope, key (newline-terminated), then the raw
    // payload until EOF. Scope/key are verified so an FNV collision (or a
    // stale incompatible entry) reads as a miss, never as wrong data.
    if (read_line(f) == kFormatTag && read_line(f) == scope &&
        read_line(f) == key) {
      std::ostringstream payload;
      payload << f.rdbuf();
      *bytes = payload.str();
      ok = true;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ok ? ++hits_ : ++misses_;
  return ok;
}

void DiskStageCache::store(const std::string& scope, const std::string& key,
                           const std::string& bytes) {
  std::string entry =
      std::string(kFormatTag) + "\n" + scope + "\n" + key + "\n" + bytes;
  // Disk full / unwritable: persisting is best-effort.
  if (!util::write_file_atomic(entry_path(scope, key), entry)) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++stores_;
}

std::size_t DiskStageCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::size_t DiskStageCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::size_t DiskStageCache::stores() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stores_;
}

}  // namespace sysnoise::core
