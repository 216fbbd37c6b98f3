// Small GEMM family powering conv and linear layers.
//
// Every entry point runs the kernel of the active ComputeBackend
// (tensor/backend.h: reference, blocked or simd; see gemm.cpp) on the
// calling thread. The reference backend is defined by its per-element
// operation sequence, not by a kernel: gemm(), gemm_acc() and gemm_at*() run
// the seed loops, while gemm_bt_acc() and a conv forward on finite input
// (gemm_gather) compute the same sequence on the packed engine.
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

// C[m x n] = A[m x k] * B[k x n] (C overwritten) with B gathered from `src`:
// B[kk][j] = src[koff[kk] + coff[j]]. A convolution passes its zero-padded
// input, so B is its im2col column matrix without that matrix being written.
// Runs the packed engine under every backend: simd's micro-kernel under simd,
// the blocked one under reference and blocked. From a zeroed C the blocked
// kernel gives each element the reference gemm's operation sequence, except
// that it does not skip zero A values. So under reference the result is
// gemm()'s bytes whenever every B value is finite; the caller checks that.
void gemm_gather(int m, int n, int k, const float* a, const float* src,
                 const int* koff, const int* coff, float* c);

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
