#include "nn/serialize.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/fs.h"

namespace sysnoise::nn {

namespace {

constexpr std::uint32_t kMagic = 0x53594E50;  // "SYNP"

// Zoo-cache files are shared by concurrent processes (distributed workers
// all resolve the same models against one SYSNOISE_CACHE_DIR), so a file is
// built in memory and published atomically: a reader never sees a
// half-written weights/ranges file.
void publish_or_throw(const std::string& path, const std::ostringstream& f,
                      const char* what) {
  if (!util::write_file_atomic(path, f.view()))
    throw std::runtime_error(std::string(what) + ": cannot write " + path);
}

void write_tensor(std::ostream& f, const Tensor& t) {
  const auto rank = static_cast<std::uint32_t>(t.rank());
  f.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
  for (int d : t.shape()) {
    const auto dd = static_cast<std::int32_t>(d);
    f.write(reinterpret_cast<const char*>(&dd), sizeof(dd));
  }
  f.write(reinterpret_cast<const char*>(t.data()),
          static_cast<std::streamsize>(t.size() * sizeof(float)));
}

// Reads one tensor shaped like `like` into `out`. False on a short read;
// throws when the stored shape differs, checking the rank before the dims
// are read so a corrupt rank never sizes an allocation.
bool read_tensor(std::ifstream& f, const Tensor& like, Tensor& out) {
  std::uint32_t rank = 0;
  if (!f.read(reinterpret_cast<char*>(&rank), sizeof(rank))) return false;
  if (rank != static_cast<std::uint32_t>(like.rank()))
    throw std::runtime_error("load_params: shape mismatch (stale cache?)");
  std::vector<int> shape(rank);
  for (auto& d : shape) {
    std::int32_t dd = 0;
    if (!f.read(reinterpret_cast<char*>(&dd), sizeof(dd))) return false;
    d = dd;
  }
  if (shape != like.shape())
    throw std::runtime_error("load_params: shape mismatch (stale cache?)");
  out = Tensor(like.shape());
  return static_cast<bool>(
      f.read(reinterpret_cast<char*>(out.data()),
             static_cast<std::streamsize>(out.size() * sizeof(float))));
}

// True when `f` has no byte left: a complete file ends with its last entry.
bool at_end(std::ifstream& f) {
  return f.peek() == std::ifstream::traits_type::eof();
}

}  // namespace

void save_params(const std::string& path, const std::vector<Param*>& params,
                 const std::vector<const Tensor*>& extra_state) {
  std::ostringstream f(std::ios::binary);
  f.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  const auto count =
      static_cast<std::uint32_t>(params.size() + extra_state.size());
  f.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Param* p : params) write_tensor(f, p->value);
  for (const Tensor* t : extra_state) write_tensor(f, *t);
  publish_or_throw(path, f, "save_params");
}

bool load_params(const std::string& path, const std::vector<Param*>& params,
                 const std::vector<Tensor*>& extra_state) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::uint32_t magic = 0, count = 0;
  if (!f.read(reinterpret_cast<char*>(&magic), sizeof(magic)) ||
      !f.read(reinterpret_cast<char*>(&count), sizeof(count)))
    return false;
  if (magic != kMagic) throw std::runtime_error("load_params: bad magic " + path);
  if (count != params.size() + extra_state.size())
    throw std::runtime_error("load_params: param count mismatch " + path);
  // Parse everything into scratch tensors first: a truncated file must
  // leave every destination untouched, so the caller retrains from its
  // clean init rather than from a half-overwritten one.
  std::vector<Tensor*> dest;
  for (Param* p : params) dest.push_back(&p->value);
  dest.insert(dest.end(), extra_state.begin(), extra_state.end());
  std::vector<Tensor> loaded(dest.size());
  for (std::size_t i = 0; i < dest.size(); ++i)
    if (!read_tensor(f, *dest[i], loaded[i])) return false;
  if (!at_end(f)) return false;
  // In place: the destinations keep their buffers, as optimizers do.
  for (std::size_t i = 0; i < dest.size(); ++i)
    std::copy(loaded[i].vec().begin(), loaded[i].vec().end(), dest[i]->data());
  return true;
}

void save_ranges(const std::string& path, const ActRanges& ranges) {
  std::ostringstream f(std::ios::binary);
  const auto count = static_cast<std::uint32_t>(ranges.size());
  f.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& [key, obs] : ranges) {
    const auto len = static_cast<std::uint32_t>(key.size());
    f.write(reinterpret_cast<const char*>(&len), sizeof(len));
    f.write(key.data(), static_cast<std::streamsize>(len));
    f.write(reinterpret_cast<const char*>(&obs.lo), sizeof(obs.lo));
    f.write(reinterpret_cast<const char*>(&obs.hi), sizeof(obs.hi));
  }
  publish_or_throw(path, f, "save_ranges");
}

bool load_ranges(const std::string& path, ActRanges& ranges) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) return false;
  const auto size = static_cast<std::uint64_t>(f.tellg());
  f.seekg(0);
  std::uint32_t count = 0;
  if (!f.read(reinterpret_cast<char*>(&count), sizeof(count))) return false;
  // As in load_params: only a completely parsed file changes `ranges`.
  ActRanges loaded;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t len = 0;
    if (!f.read(reinterpret_cast<char*>(&len), sizeof(len))) return false;
    // The key length comes from the file: bound it by the bytes left.
    if (len > size - static_cast<std::uint64_t>(f.tellg())) return false;
    std::string key(len, '\0');
    f.read(key.data(), static_cast<std::streamsize>(len));
    RangeObserver obs;
    f.read(reinterpret_cast<char*>(&obs.lo), sizeof(obs.lo));
    f.read(reinterpret_cast<char*>(&obs.hi), sizeof(obs.hi));
    obs.seen = true;
    if (!f) return false;
    loaded[key] = obs;
  }
  if (!at_end(f)) return false;
  for (auto& [key, obs] : loaded) ranges[key] = obs;
  return true;
}

}  // namespace sysnoise::nn
