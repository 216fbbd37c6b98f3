// Pluggable compute backends for the GEMM / conv hot path.
//
// Every float GEMM in the engine (tensor/gemm.h) and every conv2d
// (nn/ops_conv.cpp) dispatch through the active ComputeBackend:
//
//  - kReference  — defined by the seed loops' per-element operation
//                  sequence, not by one kernel, so its output is
//                  bit-identical to the seed's. gemm, gemm_acc and gemm_at*
//                  are the seed loops themselves, built once, never fused.
//                  gemm_bt_acc, whose seed loop never skipped, and
//                  gemm_gather (every conv forward) on finite B compute the
//                  same sequence on the packed engine, which skips nothing
//                  and is faster. Keeps the zero-skip
//                  (`if (av == 0.0f) continue;`) as an explicit, documented
//                  property: it silently drops 0 x inf = NaN propagation, so
//                  results depend on the sparsity of A when B holds
//                  non-finite values. With finite B and a zeroed C the skip
//                  is invisible; a gather that reads inf or NaN runs the
//                  seed gemm on its materialized B.
//  - kBlocked    — register-tiled micro-kernel over packed panels with a
//                  fixed, k-ascending accumulation order (no zero-skip, so
//                  IEEE non-finite propagation is exact). Its micro-kernel
//                  has a baseline and an 8-lane AVX build, both unfused.
//  - kSimd       — AVX2+FMA on x86 / NEON on ARM, picked by runtime CPU
//                  detection with the blocked micro-kernel as fallback. FMA
//                  legitimately rounds differently from the unfused
//                  kernels.
//
// Different kernels produce different floats for the *same* operator — that
// is exactly the paper's hardware/implementation noise, so the backend is
// registered as a NoiseAxis (core/axis.cpp) and selected per deployment
// config (SysNoiseConfig::backend). The bit-exactness contract is
// per-backend: every executor must produce byte-identical sweeps *given the
// same backend*; nothing is promised across backends beyond the parity
// epsilon the tests pin.
//
// The process-wide default comes from $SYSNOISE_BACKEND (reference when
// unset); per-thread overrides (BackendScope) are how ops apply a config's
// backend around their kernel calls. Every kernel call runs on its calling
// thread; parallelism lives one level up, across configs (executors),
// requests (serving workers) and processes (dist workers).
#pragma once

#include <cstddef>
#include <string>

namespace sysnoise {

enum class ComputeBackend { kReference = 0, kBlocked = 1, kSimd = 2 };
constexpr int kNumComputeBackends = 3;

const char* backend_name(ComputeBackend b);
// Inverse of backend_name; throws std::invalid_argument on unknown names so
// a corrupted plan or env var fails loudly.
ComputeBackend backend_from_name(const std::string& name);

// The process-wide default backend: $SYSNOISE_BACKEND at first use (throws
// on an unknown value), overridable programmatically. New SysNoiseConfigs
// and InferenceCtxs are born with this backend; training runs under it.
ComputeBackend default_backend();
// Override the process default (tests, per-backend benches). Returns the
// previous default.
ComputeBackend set_default_backend(ComputeBackend b);

// The backend the calling thread's kernel calls dispatch to: the innermost
// live BackendScope, or the process default when none is active.
ComputeBackend active_backend();

// RAII per-thread backend override. Ops open one from their InferenceCtx
// around kernel calls, so a parallel sweep can evaluate configs with
// different backends concurrently without races.
class BackendScope {
 public:
  explicit BackendScope(ComputeBackend b);
  ~BackendScope();
  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;

 private:
  int prev_;
};

// Which SIMD ISA the kSimd backend dispatches to on this machine: "avx2",
// "neon", or "scalar" (no vector unit detected; kSimd then computes with
// the blocked kernels). Recorded in BENCH_perf.json so perf trajectories
// across machines are interpretable.
const char* simd_isa_name();

// --- scratch arena ----------------------------------------------------------

// Thread-local scratch buffer lender: returns an uninitialized buffer of at
// least `floats` floats for `slot`, reused across calls and grown at least
// geometrically (never shrunk), so per-call hot-path allocations happen once
// per thread per doubling of the high-water mark instead of once per
// invocation. Slot map:
//  0  the packed engine's A panels;
//  1  the packed engine's B strips, or the materialized B of a reference
//     gather that reads a non-finite value;
//  2  conv: the zero-padded input plane every forward gathers from, or the
//     backward's im2col columns;
//  3  conv backward: the column-matrix gradient.
// The buffer stays valid until the same thread asks for the same slot again.
float* tls_scratch(std::size_t floats, int slot);

}  // namespace sysnoise
