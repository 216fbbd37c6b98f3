// GEMM kernel family behind the ComputeBackend seam (tensor/backend.h).
//
// Three implementations of every variant (gemm_gather reads its B through
// the packed engine's gather; gemm.h gives its contract):
//  - reference: defined by the seed loops' per-element operation sequence,
//    so bit-identical to the historical output. gemm_acc and gemm_at_acc are
//    the seed loops themselves, built once. They keep the zero-skip
//    (`if (av == 0.0f) continue;`) as a documented reference-only property
//    — it drops 0 x inf = NaN propagation, so results depend on the
//    sparsity of A when B holds non-finite values. The other backends do
//    NOT skip. Where the skip is invisible, reference runs the blocked
//    micro-kernel, which gives each element the same sequence: gemm_bt_acc,
//    whose seed loop starts each dot product at +0, accumulates k-ascending
//    and adds to C once, and a gather (C from +0) whose B values are all
//    finite. A gather that reads inf or NaN materializes B and runs the seed
//    gemm_acc.
//  - blocked: one packed-panel engine for all variants. A and B tiles are
//    packed into k-major micro-panels and a register-tiled MR x NR
//    micro-kernel accumulates in a fixed, strictly k-ascending order into
//    fresh accumulators that are added to C once — deterministic at any
//    tile boundary. Its micro-kernel also has a baseline and an unfused AVX
//    build, chosen once per process.
//  - simd: the same packed engine with an AVX2+FMA (x86) or NEON (ARM)
//    micro-kernel, chosen by runtime CPU detection; tails and unsupported
//    CPUs fall back to the blocked micro-kernel. FMA's single
//    rounding makes this a genuinely different float profile — which is
//    the point: the backend is a measured noise axis.
//
// Every call runs on its calling thread.
#include "tensor/gemm.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "tensor/backend.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define SYSNOISE_GEMM_X86 1
#elif defined(__aarch64__)
#include <arm_neon.h>
#define SYSNOISE_GEMM_NEON 1
#endif

namespace sysnoise {

namespace {

// ---------------------------------------------------------------------------
// Reference backend: the seed's loops, verbatim and built once.
// ---------------------------------------------------------------------------

constexpr int kRefBlockK = 128;
constexpr int kRefBlockN = 256;

void ref_gemm_acc(int m, int n, int k, const float* a, const float* b,
                  float* c) {
  // i-k-j loop order with k/n blocking: B rows stream through cache.
  for (int k0 = 0; k0 < k; k0 += kRefBlockK) {
    const int k1 = std::min(k, k0 + kRefBlockK);
    for (int n0 = 0; n0 < n; n0 += kRefBlockN) {
      const int n1 = std::min(n, n0 + kRefBlockN);
      for (int i = 0; i < m; ++i) {
        float* crow = c + static_cast<std::ptrdiff_t>(i) * n;
        const float* arow = a + static_cast<std::ptrdiff_t>(i) * k;
        for (int kk = k0; kk < k1; ++kk) {
          const float av = arow[kk];
          if (av == 0.0f) continue;
          const float* brow = b + static_cast<std::ptrdiff_t>(kk) * n;
          for (int j = n0; j < n1; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

void ref_gemm_at_acc(int m, int n, int k, const float* a, const float* b,
                     float* c) {
  // A is k x m. Iterate kk outer so both A and B stream row-wise.
  for (int kk = 0; kk < k; ++kk) {
    const float* arow = a + static_cast<std::ptrdiff_t>(kk) * m;
    const float* brow = b + static_cast<std::ptrdiff_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + static_cast<std::ptrdiff_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// ---------------------------------------------------------------------------
// Packed-panel engine shared by the blocked and simd backends
// ---------------------------------------------------------------------------

// Micro-tile: MR rows of C by NR columns, accumulators live in registers
// across the whole k loop (one panel pass), then spill into C exactly once.
constexpr int MR = detail::kMicroRows;
constexpr int NR = detail::kMicroCols;

// How the engine reads its operands. The packing gathers normalize every
// variant to the same k-major micro-panels, so one micro-kernel serves
// gemm_acc (A m x k, B k x n), gemm_at_acc (A k x m), gemm_bt_acc (B n x k)
// and gemm_gather (B[kk][j] = b[koff[kk] + coff[j]]).
enum class AMode { kNormal, kTransposed };
enum class BMode { kNormal, kTransposed, kGather };

struct BOperand {
  BMode mode;
  const float* b;
  const int* koff = nullptr;  // kGather only
  const int* coff = nullptr;  // kGather only
};

inline float a_at(AMode mode, const float* a, int m, int k, int i, int kk) {
  return mode == AMode::kNormal ? a[static_cast<std::ptrdiff_t>(i) * k + kk]
                                : a[static_cast<std::ptrdiff_t>(kk) * m + i];
}

inline float b_at(const BOperand& b, int n, int k, int kk, int j) {
  switch (b.mode) {
    case BMode::kNormal: return b.b[static_cast<std::ptrdiff_t>(kk) * n + j];
    case BMode::kTransposed: return b.b[static_cast<std::ptrdiff_t>(j) * k + kk];
    case BMode::kGather: break;
  }
  return b.b[static_cast<std::ptrdiff_t>(b.koff[kk]) + b.coff[j]];
}

// Whether a gathered strip's NR column offsets cj form one contiguous run
// of the source.
bool gather_strip_is_run(const int* cj) {
  for (int j = 1; j < NR; ++j)
    if (cj[j] != cj[0] + j) return false;
  return true;
}

// Floats side by side (GCC/Clang vector extension): plain IEEE multiplies
// and adds per lane, never reassociated, and never fused in the blocked
// micro-kernel's builds (neither the x86-64 baseline nor "avx" has FMA).
// Lanes4 is one xmm register; Lanes8 is one ymm register in an AVX build.
typedef float Lanes4 __attribute__((vector_size(16)));
typedef float Lanes8 __attribute__((vector_size(32)));
// Unaligned views of the same lanes in memory, so loads and stores leave
// the lane values themselves in registers.
typedef float Lanes4Mem __attribute__((vector_size(16), aligned(4), may_alias));
typedef float Lanes8Mem __attribute__((vector_size(32), aligned(4), may_alias));

template <int kLanes>
struct LanesOf;
template <>
struct LanesOf<4> {
  using Reg = Lanes4;
  using Mem = Lanes4Mem;
};
template <>
struct LanesOf<8> {
  using Reg = Lanes8;
  using Mem = Lanes8Mem;
};

template <int kLanes>
inline typename LanesOf<kLanes>::Mem& lanes_at(float* p) {
  return *reinterpret_cast<typename LanesOf<kLanes>::Mem*>(p);
}
template <int kLanes>
inline const typename LanesOf<kLanes>::Mem& lanes_at(const float* p) {
  return *reinterpret_cast<const typename LanesOf<kLanes>::Mem*>(p);
}

// Blocked micro-kernel: acc[MR x NR] = ap panel * bp panel over k steps in
// strictly ascending order, starting from fresh zero accumulators (like the
// vector kernels' registers). The tile runs as NR / kPass column passes whose
// MR x kPass accumulators stay in registers across the k loop: two 8-column
// passes in the baseline build (8 xmm accumulators), one 16-column pass in
// the AVX build (8 ymm accumulators). Each element's accumulation order is
// the same in every pass layout, so the split is bit-invisible.
template <int kLanes, int kPass>
inline __attribute__((always_inline)) void micro_blocked_body(
    int k, const float* ap, const float* bp, float* acc) {
  using Reg = typename LanesOf<kLanes>::Reg;
  constexpr int kGroups = kPass / kLanes;
  for (int jh = 0; jh < NR; jh += kPass) {
    Reg t[MR][kGroups] = {};
    for (int kk = 0; kk < k; ++kk) {
      const float* arow = ap + static_cast<std::ptrdiff_t>(kk) * MR;
      const float* brow = bp + static_cast<std::ptrdiff_t>(kk) * NR + jh;
      Reg bv[kGroups];
      for (int g = 0; g < kGroups; ++g)
        bv[g] = lanes_at<kLanes>(brow + kLanes * g);
      for (int i = 0; i < MR; ++i) {
        const float av = arow[i];
        for (int g = 0; g < kGroups; ++g) t[i][g] += av * bv[g];
      }
    }
    for (int i = 0; i < MR; ++i)
      for (int g = 0; g < kGroups; ++g)
        lanes_at<kLanes>(acc + i * NR + jh + kLanes * g) = t[i][g];
  }
}

void micro_blocked_baseline(int k, const float* ap, const float* bp,
                            float* acc) {
  micro_blocked_body<4, 8>(k, ap, bp, acc);
}

#if defined(SYSNOISE_GEMM_X86)
// "avx" only: no FMA, so every lane rounds its multiply and its add.
__attribute__((target("avx"))) void micro_blocked_avx(int k, const float* ap,
                                                      const float* bp,
                                                      float* acc) {
  micro_blocked_body<8, NR>(k, ap, bp, acc);
}
#endif

#if defined(SYSNOISE_GEMM_X86)
__attribute__((target("avx2,fma"))) void micro_avx2(int k, const float* ap,
                                                    const float* bp,
                                                    float* acc) {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  for (int kk = 0; kk < k; ++kk) {
    const float* arow = ap + static_cast<std::ptrdiff_t>(kk) * MR;
    const float* brow = bp + static_cast<std::ptrdiff_t>(kk) * NR;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    __m256 av = _mm256_broadcast_ss(arow + 0);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(arow + 1);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(arow + 2);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(arow + 3);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
  }
  _mm256_storeu_ps(acc + 0 * NR, c00);
  _mm256_storeu_ps(acc + 0 * NR + 8, c01);
  _mm256_storeu_ps(acc + 1 * NR, c10);
  _mm256_storeu_ps(acc + 1 * NR + 8, c11);
  _mm256_storeu_ps(acc + 2 * NR, c20);
  _mm256_storeu_ps(acc + 2 * NR + 8, c21);
  _mm256_storeu_ps(acc + 3 * NR, c30);
  _mm256_storeu_ps(acc + 3 * NR + 8, c31);
}
#endif

#if defined(SYSNOISE_GEMM_NEON)
void micro_neon(int k, const float* ap, const float* bp, float* acc) {
  float32x4_t c[MR][NR / 4];
  for (int i = 0; i < MR; ++i)
    for (int q = 0; q < NR / 4; ++q) c[i][q] = vdupq_n_f32(0.0f);
  for (int kk = 0; kk < k; ++kk) {
    const float* arow = ap + static_cast<std::ptrdiff_t>(kk) * MR;
    const float* brow = bp + static_cast<std::ptrdiff_t>(kk) * NR;
    float32x4_t b[NR / 4];
    for (int q = 0; q < NR / 4; ++q) b[q] = vld1q_f32(brow + 4 * q);
    for (int i = 0; i < MR; ++i) {
      const float32x4_t av = vdupq_n_f32(arow[i]);
      for (int q = 0; q < NR / 4; ++q) c[i][q] = vfmaq_f32(c[i][q], av, b[q]);
    }
  }
  for (int i = 0; i < MR; ++i)
    for (int q = 0; q < NR / 4; ++q) vst1q_f32(acc + i * NR + 4 * q, c[i][q]);
}
#endif

using MicroKernel = void (*)(int, const float*, const float*, float*);

// The widest kernel build this host runs, detected once.
detail::KernelBuild host_build() {
#if defined(SYSNOISE_GEMM_X86)
  static const detail::KernelBuild build = __builtin_cpu_supports("avx")
                                               ? detail::KernelBuild::kAvx
                                               : detail::KernelBuild::kBaseline;
  return build;
#else
  return detail::KernelBuild::kBaseline;
#endif
}

MicroKernel blocked_micro_kernel(detail::KernelBuild build) {
#if defined(SYSNOISE_GEMM_X86)
  if (build == detail::KernelBuild::kAvx) return &micro_blocked_avx;
#endif
  return &micro_blocked_baseline;
}

MicroKernel simd_micro_kernel() {
#if defined(SYSNOISE_GEMM_X86)
  static const MicroKernel kernel =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")
          ? &micro_avx2
          : blocked_micro_kernel(host_build());
  return kernel;
#elif defined(SYSNOISE_GEMM_NEON)
  return &micro_neon;
#else
  return blocked_micro_kernel(host_build());
#endif
}

// C += op(A) * op(B) over the full k range through packed panels. Packing
// cost: A once per call (k-major MR panels, zero-padded tail rows), B once
// per NR column strip (reused across all row panels); a gathered B is read
// from its source here, so it is never materialized.
// Zero padding is only ever multiplied into accumulator lanes that are
// never stored, so it cannot leak NaNs into C.
void packed_gemm(MicroKernel micro, int m, int n, int k, AMode amode,
                 const float* a, const BOperand& b, float* c) {
  const int mpanels = (m + MR - 1) / MR;
  float* apack =
      tls_scratch(static_cast<std::size_t>(mpanels) * MR * k, /*slot=*/0);
  for (int p = 0; p < mpanels; ++p) {
    float* panel = apack + static_cast<std::ptrdiff_t>(p) * MR * k;
    const int ib = std::min(MR, m - p * MR);
    const int row0 = p * MR;
    if (ib == MR && amode == AMode::kNormal) {
      // Full panel from row-major A: transpose four contiguous rows.
      const float* r = a + static_cast<std::ptrdiff_t>(row0) * k;
      for (int kk = 0; kk < k; ++kk) {
        float* dst = panel + static_cast<std::ptrdiff_t>(kk) * MR;
        dst[0] = r[kk];
        dst[1] = r[k + kk];
        dst[2] = r[2 * static_cast<std::ptrdiff_t>(k) + kk];
        dst[3] = r[3 * static_cast<std::ptrdiff_t>(k) + kk];
      }
    } else if (ib == MR && amode == AMode::kTransposed) {
      // Full panel from k x m A: each k step is already MR contiguous floats.
      for (int kk = 0; kk < k; ++kk)
        std::memcpy(panel + static_cast<std::ptrdiff_t>(kk) * MR,
                    a + static_cast<std::ptrdiff_t>(kk) * m + row0,
                    MR * sizeof(float));
    } else {
      for (int kk = 0; kk < k; ++kk)
        for (int i = 0; i < MR; ++i)
          panel[static_cast<std::ptrdiff_t>(kk) * MR + i] =
              i < ib ? a_at(amode, a, m, k, row0 + i, kk) : 0.0f;
    }
  }

  float* bpack = tls_scratch(static_cast<std::size_t>(k) * NR, /*slot=*/1);
  float acc[MR * NR];
  for (int j0 = 0; j0 < n; j0 += NR) {
    const int jb = std::min(NR, n - j0);
    if (jb == NR && b.mode == BMode::kNormal) {
      // Full strip from row-major B: NR contiguous floats per k step.
      for (int kk = 0; kk < k; ++kk)
        std::memcpy(bpack + static_cast<std::ptrdiff_t>(kk) * NR,
                    b.b + static_cast<std::ptrdiff_t>(kk) * n + j0,
                    NR * sizeof(float));
    } else if (jb == NR && b.mode == BMode::kTransposed) {
      // Full strip from n x k B: stream each B row, scatter into the strip.
      for (int j = 0; j < NR; ++j) {
        const float* brow = b.b + static_cast<std::ptrdiff_t>(j0 + j) * k;
        for (int kk = 0; kk < k; ++kk)
          bpack[static_cast<std::ptrdiff_t>(kk) * NR + j] = brow[kk];
      }
    } else if (jb == NR && b.mode == BMode::kGather) {
      // Full gathered strip: one copy per k step when its columns are one
      // contiguous run of the source (a stride-1 conv strip within one
      // output row), else one read per column.
      const int* cj = b.coff + j0;
      const bool run = gather_strip_is_run(cj);
      for (int kk = 0; kk < k; ++kk) {
        const float* src = b.b + b.koff[kk];
        float* dst = bpack + static_cast<std::ptrdiff_t>(kk) * NR;
        if (run)
          std::memcpy(dst, src + cj[0], NR * sizeof(float));
        else
          for (int j = 0; j < NR; ++j) dst[j] = src[cj[j]];
      }
    } else {
      for (int kk = 0; kk < k; ++kk)
        for (int j = 0; j < NR; ++j)
          bpack[static_cast<std::ptrdiff_t>(kk) * NR + j] =
              j < jb ? b_at(b, n, k, kk, j0 + j) : 0.0f;
    }
    for (int p = 0; p < mpanels; ++p) {
      micro(k, apack + static_cast<std::ptrdiff_t>(p) * MR * k, bpack, acc);
      const int ib = std::min(MR, m - p * MR);
      for (int i = 0; i < ib; ++i) {
        float* crow = c + static_cast<std::ptrdiff_t>(p * MR + i) * n + j0;
        for (int j = 0; j < jb; ++j) crow[j] += acc[i * NR + j];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

// Whether every B value a gather reads is finite. Scans the source between
// the lowest and the highest offset the gather reads (both are reads), a
// superset of its reads, with an exponent-bit test, so the loop vectorizes.
bool gather_reads_finite(int n, int k, const BOperand& b) {
  if (n == 0 || k == 0) return true;
  const auto [klo, khi] = std::minmax_element(b.koff, b.koff + k);
  const auto [clo, chi] = std::minmax_element(b.coff, b.coff + n);
  const float* p = b.b + (static_cast<std::ptrdiff_t>(*klo) + *clo);
  const std::ptrdiff_t len =
      static_cast<std::ptrdiff_t>(*khi) + *chi - *klo - *clo + 1;
  std::uint32_t nonfinite = 0;
  for (std::ptrdiff_t i = 0; i < len; ++i) {
    std::uint32_t u;
    std::memcpy(&u, p + i, sizeof(u));
    nonfinite |= static_cast<std::uint32_t>((u & 0x7f800000u) == 0x7f800000u);
  }
  return nonfinite == 0;
}

// The gathered B as a k x n matrix, in scratch slot 1 (free while the seed
// loops run).
const float* materialize_gather(int n, int k, const BOperand& b) {
  float* bmat = tls_scratch(static_cast<std::size_t>(k) * n, /*slot=*/1);
  for (int kk = 0; kk < k; ++kk) {
    const float* src = b.b + b.koff[kk];
    float* row = bmat + static_cast<std::ptrdiff_t>(kk) * n;
    for (int j = 0; j < n; ++j) row[j] = src[b.coff[j]];
  }
  return bmat;
}

void dispatch_acc(int m, int n, int k, AMode amode, const float* a,
                  const BOperand& b, float* c) {
  const ComputeBackend backend = active_backend();
  // Reference runs the seed loops only where their zero-skip and in-place C
  // accumulation make their bytes differ from the packed engine's: gemm_acc,
  // gemm_at_acc, and a gather that reads a non-finite value, whose B it
  // materializes in slot 1. Its gemm_bt_acc and every other gather run the
  // blocked micro-kernel.
  if (backend == ComputeBackend::kReference && b.mode == BMode::kNormal) {
    if (amode == AMode::kNormal)
      ref_gemm_acc(m, n, k, a, b.b, c);
    else
      ref_gemm_at_acc(m, n, k, a, b.b, c);
    return;
  }
  if (backend == ComputeBackend::kReference && b.mode == BMode::kGather &&
      !gather_reads_finite(n, k, b)) {
    ref_gemm_acc(m, n, k, a, materialize_gather(n, k, b), c);
    return;
  }
  static const MicroKernel blocked_micro = blocked_micro_kernel(host_build());
  packed_gemm(backend == ComputeBackend::kSimd ? simd_micro_kernel()
                                               : blocked_micro,
              m, n, k, amode, a, b, c);
}

}  // namespace

namespace detail {

bool kernel_build_supported(KernelBuild build) {
  return build == KernelBuild::kBaseline || host_build() == KernelBuild::kAvx;
}

namespace {
void require_build(KernelBuild build) {
  if (!kernel_build_supported(build))
    throw std::invalid_argument("gemm: kernel build not supported on this host");
}
}  // namespace

void blocked_micro(KernelBuild build, int k, const float* ap, const float* bp,
                   float* acc) {
  require_build(build);
  blocked_micro_kernel(build)(k, ap, bp, acc);
}

}  // namespace detail

void gemm_acc(int m, int n, int k, const float* a, const float* b, float* c) {
  dispatch_acc(m, n, k, AMode::kNormal, a, {BMode::kNormal, b}, c);
}

void gemm(int m, int n, int k, const float* a, const float* b, float* c) {
  std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m) * n);
  gemm_acc(m, n, k, a, b, c);
}

void gemm_at(int m, int n, int k, const float* a, const float* b, float* c) {
  std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m) * n);
  gemm_at_acc(m, n, k, a, b, c);
}

void gemm_at_acc(int m, int n, int k, const float* a, const float* b, float* c) {
  dispatch_acc(m, n, k, AMode::kTransposed, a, {BMode::kNormal, b}, c);
}

void gemm_bt_acc(int m, int n, int k, const float* a, const float* b, float* c) {
  dispatch_acc(m, n, k, AMode::kNormal, a, {BMode::kTransposed, b}, c);
}

void gemm_gather(int m, int n, int k, const float* a, const float* src,
                 const int* koff, const int* coff, float* c) {
  std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m) * n);
  dispatch_acc(m, n, k, AMode::kNormal, a, {BMode::kGather, src, koff, coff},
               c);
}

}  // namespace sysnoise
