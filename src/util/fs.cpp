#include "util/fs.h"

#include <atomic>
#include <cstdint>
#include <cstdio>

#include <unistd.h>

namespace sysnoise::util {

bool write_file_atomic(const std::string& path, std::string_view bytes) {
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(seq.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (written && closed && std::rename(tmp.c_str(), path.c_str()) == 0)
    return true;
  std::remove(tmp.c_str());
  return false;
}

}  // namespace sysnoise::util
