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

}  // namespace sysnoise
