#include "tensor/backend.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>

namespace sysnoise {

namespace {

std::atomic<int>& default_backend_slot() {
  static std::atomic<int> slot = [] {
    const char* env = std::getenv("SYSNOISE_BACKEND");
    const ComputeBackend b =
        env != nullptr && *env != '\0' ? backend_from_name(env)
                                       : ComputeBackend::kReference;
    return static_cast<int>(b);
  }();
  return slot;
}

// -1 = no per-thread override: fall through to the process default.
thread_local int tls_backend_override = -1;

}  // namespace

const char* backend_name(ComputeBackend b) {
  switch (b) {
    case ComputeBackend::kReference: return "reference";
    case ComputeBackend::kBlocked: return "blocked";
    case ComputeBackend::kSimd: return "simd";
  }
  return "?";
}

ComputeBackend backend_from_name(const std::string& name) {
  for (int i = 0; i < kNumComputeBackends; ++i) {
    const auto b = static_cast<ComputeBackend>(i);
    if (name == backend_name(b)) return b;
  }
  throw std::invalid_argument("unknown compute backend name \"" + name + "\"");
}

ComputeBackend default_backend() {
  return static_cast<ComputeBackend>(
      default_backend_slot().load(std::memory_order_relaxed));
}

ComputeBackend set_default_backend(ComputeBackend b) {
  return static_cast<ComputeBackend>(default_backend_slot().exchange(
      static_cast<int>(b), std::memory_order_relaxed));
}

ComputeBackend active_backend() {
  return tls_backend_override >= 0
             ? static_cast<ComputeBackend>(tls_backend_override)
             : default_backend();
}

BackendScope::BackendScope(ComputeBackend b) : prev_(tls_backend_override) {
  tls_backend_override = static_cast<int>(b);
}

BackendScope::~BackendScope() { tls_backend_override = prev_; }

const char* simd_isa_name() {
#if defined(__x86_64__) || defined(_M_X64)
  static const bool avx2 = [] {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }();
  return avx2 ? "avx2" : "scalar";
#elif defined(__aarch64__)
  return "neon";
#else
  return "scalar";
#endif
}

float* tls_scratch(std::size_t floats, int slot) {
  constexpr int kSlots = 4;
  struct Slot {
    std::unique_ptr<float[]> data;
    std::size_t size = 0;
  };
  thread_local Slot slots[kSlots];
  Slot& s = slots[slot % kSlots];
  // Grow at least geometrically: growing to exactly each new high-water
  // mark reallocates on every one, and the freed blocks fragment the heap.
  // The new block is left uninitialized, so pages no request reaches are
  // never touched.
  if (s.size < floats) {
    s.size = std::max(floats, 2 * s.size);
    s.data.reset(new float[s.size]);
  }
  return s.data.get();
}

}  // namespace sysnoise
