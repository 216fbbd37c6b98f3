// Pluggable compute backends for the GEMM / conv hot path.
//
// Every float GEMM in the engine (tensor/gemm.h) and every conv2d
// (nn/ops_conv.cpp) dispatch through the active ComputeBackend:
//
//  - kReference  — defined by the seed loops' per-element operation
//                  sequence, not by one kernel, so its output is
//                  bit-identical to the seed's. The public GEMMs run the seed
//                  loops, 8 lanes wide under runtime-detected AVX, never
//                  fused. A conv forward on finite input computes the same
//                  sequence on the packed engine (gemm_gather), which skips
//                  nothing and is faster. Keeps the zero-skip
//                  (`if (av == 0.0f) continue;`) as an explicit, documented
//                  property: it silently drops 0 x inf = NaN propagation, so
//                  results depend on the sparsity of A when B holds
//                  non-finite values. With finite B and a zeroed C the skip
//                  is invisible, which is what lets the conv forward switch.
//  - kBlocked    — register-tiled micro-kernel over packed panels with a
//                  fixed, k-ascending accumulation order (no zero-skip, so
//                  IEEE non-finite propagation is exact). Like kReference,
//                  it may run unfused 8-lane AVX, never fused.
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
// backend around their kernel calls. A small process-wide worker pool
// provides deterministic intra-forward parallelism: parallel_ranges() splits
// disjoint row ranges across workers, which cannot change any accumulation
// order, so results are bit-identical at every worker count.
#pragma once

#include <cstddef>
#include <functional>
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

// --- intra-forward parallelism ---------------------------------------------

// Worker count the calling thread's kernel calls may fan out to (>= 1).
// Defaults to 1 (serial); the batched executor opens a GemmParallelScope
// around stacked multi-config forward invocations.
int gemm_workers();

// RAII per-thread parallelism grant. `workers <= 0` means "use the
// hardware": min(hardware_concurrency, kMaxGemmWorkers).
class GemmParallelScope {
 public:
  explicit GemmParallelScope(int workers);
  ~GemmParallelScope();
  GemmParallelScope(const GemmParallelScope&) = delete;
  GemmParallelScope& operator=(const GemmParallelScope&) = delete;

 private:
  int prev_;
};

// Grow the process worker pool to at least `n` helper threads (capped at
// the pool's fan-out bound; threads are only ever added). The pool normally
// sizes itself to hardware_concurrency() - 1, which is zero on a
// single-core host — every fan-out then collapses to one inline range and
// the split path is never exercised. Tests and benches that assert
// split-vs-serial behavior call this first so they are never vacuously
// green on small machines.
void ensure_gemm_pool_helpers(int n);

// Split [0, total) into at most gemm_workers() contiguous chunks (aligned
// down to `align` boundaries) and run fn(begin, end) for each, across the
// process worker pool plus the calling thread. Every range runs under the
// caller's active_backend(), whichever thread executes it. Ranges are
// disjoint, so any writer touching only its range is race-free and
// order-independent; runs inline when gemm_workers() == 1, total is small,
// or the caller is itself a pool worker (no nested fan-out).
void parallel_ranges(int total, int align,
                     const std::function<void(int, int)>& fn);

// --- scratch arena ----------------------------------------------------------

// Thread-local scratch buffer lender: returns an uninitialized buffer of at
// least `floats` floats for `slot`, reused across calls and grown at least
// geometrically (never shrunk), so per-call hot-path allocations happen once
// per thread per doubling of the high-water mark instead of once per
// invocation. Slot map:
//  0  the packed engine's A panels;
//  1  the packed engine's B strips, or the reference gemm_bt_acc's
//     transposed B strip;
//  2  conv: the zero-padded input plane a gathered forward reads, or the
//     im2col columns of the backward, a depthwise forward and a reference
//     forward on non-finite input;
//  3  conv backward: the column-matrix gradient.
// The buffer stays valid until the same thread asks for the same slot again.
float* tls_scratch(std::size_t floats, int slot);

}  // namespace sysnoise
