// Small GEMM family powering conv (im2col) and linear layers.
//
// Every entry point runs the kernel of the active ComputeBackend
// (tensor/backend.h: reference, blocked or simd; see gemm.cpp) and splits
// large-M row ranges across the backend worker pool only when the caller
// grants fan-out (GemmParallelScope), bit-identically at any worker count.
// Accumulates in float. Not meant to compete with BLAS, but fast enough to
// train the mini model zoo in-process.
#pragma once

#include <cstddef>

namespace sysnoise {

// C[m x n] = A[m x k] * B[k x n]  (row-major, C overwritten)
void gemm(int m, int n, int k, const float* a, const float* b, float* c);

// C[m x n] += A[m x k] * B[k x n]
void gemm_acc(int m, int n, int k, const float* a, const float* b, float* c);

// C[m x n] = A^T[k x m] * B[k x n]   (A stored k-major, i.e. A is k x m)
void gemm_at(int m, int n, int k, const float* a, const float* b, float* c);

// C[m x n] += A^T[k x m] * B[k x n]
void gemm_at_acc(int m, int n, int k, const float* a, const float* b, float* c);

// C[m x n] += A[m x k] * B^T[n x k]  (B stored n x k)
void gemm_bt_acc(int m, int n, int k, const float* a, const float* b, float* c);

namespace detail {

// The instruction-set builds of the reference gemm_acc kernel and of the
// blocked micro-kernel. Both builds run the same per-element operation
// sequence; the AVX build runs it 8 lanes wide with unfused multiplies and
// adds. The public entry points pick the AVX build once, when the host
// supports AVX. Exposed so tests can hold each build to the seed loops.
enum class KernelBuild { kBaseline, kAvx };

// Whether this host can run `build`.
bool kernel_build_supported(KernelBuild build);

// The reference gemm_acc (C[m x n] += A[m x k] * B[k x n]) in one build:
// serial, with no backend dispatch. Throws std::invalid_argument when the
// host cannot run `build`.
void ref_gemm_acc(KernelBuild build, int m, int n, int k, const float* a,
                  const float* b, float* c);

// The blocked micro-tile: acc[kMicroRows x kMicroCols] (row-major) = the
// k-major panels ap (kMicroRows floats per k step) times bp (kMicroCols
// floats per k step), in one build. Throws like ref_gemm_acc.
constexpr int kMicroRows = 4;
constexpr int kMicroCols = 16;
void blocked_micro(KernelBuild build, int k, const float* ap, const float* bp,
                   float* acc);

}  // namespace detail

}  // namespace sysnoise
