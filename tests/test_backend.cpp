// Compute-backend seam (tensor/backend.h): name round trips, GEMM parity
// between the reference / blocked / simd kernel families, per-backend
// bit-exact self-consistency, the reference backend's documented zero-skip
// vs IEEE non-finite propagation, conv2d im2col edge cases per backend, and
// backend-scoped stage caching (forward products from different kernels
// never mix, in memory or on disk).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/disk_stage_cache.h"
#include "core/executor.h"
#include "core/plan.h"
#include "core/staged_eval.h"
#include "core/synthetic_task.h"
#include "data/noise_config.h"
#include "nn/ops.h"
#include "tensor/backend.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"

namespace sysnoise {
namespace {

constexpr ComputeBackend kAllBackends[] = {
    ComputeBackend::kReference, ComputeBackend::kBlocked,
    ComputeBackend::kSimd};

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.uniform_f(-2.0f, 2.0f);
  return v;
}

float max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

// Run one GEMM variant under a backend. c is seeded for the _acc variants.
enum class Variant { kGemm, kGemmAcc, kGemmAt, kGemmAtAcc, kGemmBtAcc };
constexpr Variant kAllVariants[] = {Variant::kGemm, Variant::kGemmAcc,
                                    Variant::kGemmAt, Variant::kGemmAtAcc,
                                    Variant::kGemmBtAcc};

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kGemm: return "gemm";
    case Variant::kGemmAcc: return "gemm_acc";
    case Variant::kGemmAt: return "gemm_at";
    case Variant::kGemmAtAcc: return "gemm_at_acc";
    case Variant::kGemmBtAcc: return "gemm_bt_acc";
  }
  return "?";
}

std::vector<float> run_variant(Variant v, ComputeBackend backend, int m, int n,
                               int k, const std::vector<float>& a,
                               const std::vector<float>& b,
                               std::vector<float> c) {
  const BackendScope scope(backend);
  switch (v) {
    case Variant::kGemm: gemm(m, n, k, a.data(), b.data(), c.data()); break;
    case Variant::kGemmAcc:
      gemm_acc(m, n, k, a.data(), b.data(), c.data());
      break;
    case Variant::kGemmAt: gemm_at(m, n, k, a.data(), b.data(), c.data()); break;
    case Variant::kGemmAtAcc:
      gemm_at_acc(m, n, k, a.data(), b.data(), c.data());
      break;
    case Variant::kGemmBtAcc:
      gemm_bt_acc(m, n, k, a.data(), b.data(), c.data());
      break;
  }
  return c;
}

// Shapes of operand A (and A-transposed) / B per variant.
std::size_t a_floats(Variant v, int m, int k) {
  return static_cast<std::size_t>(m) * k;  // same float count either layout
}
std::size_t b_floats(Variant v, int n, int k) {
  return static_cast<std::size_t>(n) * k;
}

// ---------------------------------------------------------------------------
// Names / selection plumbing
// ---------------------------------------------------------------------------

TEST(Backend, NamesRoundTripAndUnknownThrows) {
  for (const ComputeBackend b : kAllBackends)
    EXPECT_EQ(backend_from_name(backend_name(b)), b);
  EXPECT_THROW(backend_from_name("tpu-v9"), std::invalid_argument);
  EXPECT_THROW(backend_from_name(""), std::invalid_argument);
}

TEST(Backend, ScopeOverridesAndRestoresDefault) {
  const ComputeBackend def = default_backend();
  EXPECT_EQ(active_backend(), def);
  {
    const BackendScope outer(ComputeBackend::kBlocked);
    EXPECT_EQ(active_backend(), ComputeBackend::kBlocked);
    {
      const BackendScope inner(ComputeBackend::kSimd);
      EXPECT_EQ(active_backend(), ComputeBackend::kSimd);
    }
    EXPECT_EQ(active_backend(), ComputeBackend::kBlocked);
  }
  EXPECT_EQ(active_backend(), def);
}

TEST(Backend, SetDefaultBackendReturnsPreviousAndSticks) {
  const ComputeBackend prev = set_default_backend(ComputeBackend::kBlocked);
  EXPECT_EQ(active_backend(), ComputeBackend::kBlocked);
  EXPECT_EQ(set_default_backend(prev), ComputeBackend::kBlocked);
  EXPECT_EQ(default_backend(), prev);
}

TEST(Backend, SimdIsaNameIsOneOfTheKnownIsas) {
  const std::string isa = simd_isa_name();
  EXPECT_TRUE(isa == "avx2" || isa == "neon" || isa == "scalar") << isa;
}

TEST(Backend, ConfigDescribeAndJsonCarryBackend) {
  SysNoiseConfig cfg;
  cfg.backend = ComputeBackend::kSimd;
  EXPECT_NE(cfg.describe().find("backend=simd"), std::string::npos);
  const SysNoiseConfig back = SysNoiseConfig::from_json(cfg.to_json());
  EXPECT_EQ(back.backend, ComputeBackend::kSimd);
  EXPECT_EQ(back.describe(), cfg.describe());
  // Pre-backend-axis serializations (no "backend" key) stay loadable and
  // keep the process default.
  const util::Json full = cfg.to_json();
  util::Json legacy = util::Json::object();
  for (const char* key :
       {"decoder", "resize", "crop_fraction", "color", "norm", "layout",
        "precision", "ceil_mode", "upsample", "proposal_offset"})
    legacy.set(key, *full.get(key));
  EXPECT_EQ(SysNoiseConfig::from_json(legacy).backend, default_backend());
}

// ---------------------------------------------------------------------------
// Kernel parity + determinism
// ---------------------------------------------------------------------------

// Shapes chosen to hit the packed engine's corners: micro-tile multiples,
// ragged tails in both m and n, k smaller and larger than the panels,
// single rows/columns.
const std::vector<std::array<int, 3>>& parity_shapes() {
  static const std::vector<std::array<int, 3>> shapes = {
      {4, 16, 8},  {8, 32, 64}, {5, 17, 3},  {3, 7, 19}, {1, 1, 1},
      {1, 33, 40}, {37, 1, 13}, {13, 29, 1}, {64, 48, 32}};
  return shapes;
}

TEST(BackendParity, AllVariantsAgreeWithinEpsilonAcrossBackends) {
  Rng rng(42);
  for (const auto& [m, n, k] : parity_shapes()) {
    for (const Variant v : kAllVariants) {
      const auto a = random_vec(a_floats(v, m, k), rng);
      const auto b = random_vec(b_floats(v, n, k), rng);
      const auto c0 = random_vec(static_cast<std::size_t>(m) * n, rng);
      const auto ref = run_variant(v, ComputeBackend::kReference, m, n, k, a, b, c0);
      // Accumulation order differs across kernel families, so agreement is
      // epsilon, not bits: |drift| <= eps * k * max|a||b| is generous.
      const float tol = 1e-5f * static_cast<float>(k + 1);
      for (const ComputeBackend backend :
           {ComputeBackend::kBlocked, ComputeBackend::kSimd}) {
        const auto out = run_variant(v, backend, m, n, k, a, b, c0);
        EXPECT_LE(max_abs_diff(ref, out), tol)
            << variant_name(v) << " " << backend_name(backend) << " m=" << m
            << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(BackendParity, EachBackendIsBitExactlyRepeatable) {
  Rng rng(7);
  for (const auto& [m, n, k] : parity_shapes()) {
    for (const Variant v : kAllVariants) {
      const auto a = random_vec(a_floats(v, m, k), rng);
      const auto b = random_vec(b_floats(v, n, k), rng);
      const auto c0 = random_vec(static_cast<std::size_t>(m) * n, rng);
      for (const ComputeBackend backend : kAllBackends) {
        const auto first = run_variant(v, backend, m, n, k, a, b, c0);
        const auto second = run_variant(v, backend, m, n, k, a, b, c0);
        EXPECT_EQ(first, second)
            << variant_name(v) << " " << backend_name(backend);
      }
    }
  }
}

// The seed's reference gemm_acc loop, verbatim: the oracle the reference
// gemm_acc must match bit for bit.
void seed_ref_gemm_acc(int m, int n, int k, const float* a, const float* b,
                       float* c) {
  constexpr int kRefBlockK = 128;
  constexpr int kRefBlockN = 256;
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

constexpr detail::KernelBuild kAllBuilds[] = {detail::KernelBuild::kBaseline,
                                              detail::KernelBuild::kAvx};

const char* build_name(detail::KernelBuild build) {
  return build == detail::KernelBuild::kAvx ? "avx" : "baseline";
}

TEST(BackendParity, ReferenceGemmIsBitIdenticalToTheSeedLoop) {
  // Shapes straddle the 256-column and 128-deep blocks, with n from 1 to
  // 300.
  const std::vector<std::array<int, 3>> shapes = {
      {3, 31, 5},    {2, 32, 7},     {5, 33, 129},  {9, 63, 128},
      {4, 255, 127}, {3, 256, 130},  {17, 257, 64}, {8, 300, 260},
      {1, 1, 1},     {12, 95, 300},  {16, 288, 33}, {2, 7, 256},
      {48, 16, 432}, {32, 24, 288},  {5, 8, 9},     {7, 40, 130}};
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(2024);
  for (const auto& [m, n, k] : shapes) {
    for (const bool special : {false, true}) {
      auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
      auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
      const auto c0 = random_vec(static_cast<std::size_t>(m) * n, rng);
      // Exercise the zero-skip with +0 and -0 in A and, when `special`,
      // non-finite B entries that only the skip keeps out of some outputs.
      for (std::size_t i = 0; i < a.size(); i += 3)
        a[i] = i % 2 == 0 ? 0.0f : -0.0f;
      if (special)
        for (std::size_t i = 0; i < b.size(); i += 7)
          b[i] = i % 3 == 0 ? inf : (i % 3 == 1 ? -inf : nan);
      for (const bool acc : {false, true}) {
        std::vector<float> expect =
            acc ? c0 : std::vector<float>(c0.size(), 0.0f);
        seed_ref_gemm_acc(m, n, k, a.data(), b.data(), expect.data());
        const auto got = run_variant(acc ? Variant::kGemmAcc : Variant::kGemm,
                                     ComputeBackend::kReference, m, n, k, a, b,
                                     c0);
        EXPECT_EQ(std::memcmp(got.data(), expect.data(),
                              expect.size() * sizeof(float)),
                  0)
            << "m=" << m << " n=" << n << " k=" << k << " special=" << special
            << " acc=" << acc;
      }
    }
  }
}

// The seed's blocked micro-kernel, verbatim: a 4 x 16 tile from fresh zero
// accumulators, as two 8-column passes with k strictly ascending.
void seed_micro_scalar(int k, const float* ap, const float* bp, float* acc) {
  constexpr int MR = detail::kMicroRows, NR = detail::kMicroCols;
  constexpr int kHalf = NR / 2;
  for (int jh = 0; jh < NR; jh += kHalf) {
    float t[MR * kHalf];
    for (int i = 0; i < MR * kHalf; ++i) t[i] = 0.0f;
    for (int kk = 0; kk < k; ++kk) {
      const float* arow = ap + static_cast<std::ptrdiff_t>(kk) * MR;
      const float* brow = bp + static_cast<std::ptrdiff_t>(kk) * NR + jh;
      for (int i = 0; i < MR; ++i) {
        const float av = arow[i];
        for (int j = 0; j < kHalf; ++j) t[i * kHalf + j] += av * brow[j];
      }
    }
    for (int i = 0; i < MR; ++i)
      for (int j = 0; j < kHalf; ++j) acc[i * NR + jh + j] = t[i * kHalf + j];
  }
}

TEST(BackendParity, BlockedMicroKernelIsBitIdenticalToTheSeedLoop) {
  constexpr int kTile = detail::kMicroRows * detail::kMicroCols;
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(2026);
  for (const int k : {0, 1, 7, 64, 300})
    for (const bool special : {false, true}) {
      auto ap = random_vec(static_cast<std::size_t>(k) * detail::kMicroRows,
                           rng);
      auto bp = random_vec(static_cast<std::size_t>(k) * detail::kMicroCols,
                           rng);
      for (std::size_t i = 0; i < ap.size(); i += 3)
        ap[i] = i % 2 == 0 ? 0.0f : -0.0f;
      if (special)
        for (std::size_t i = 0; i < bp.size(); i += 13)
          bp[i] = i % 2 == 0 ? inf : -inf;
      std::vector<float> expect(kTile);
      seed_micro_scalar(k, ap.data(), bp.data(), expect.data());
      for (const detail::KernelBuild build : kAllBuilds) {
        if (!detail::kernel_build_supported(build)) continue;
        std::vector<float> got(kTile, 7.0f);
        detail::blocked_micro(build, k, ap.data(), bp.data(), got.data());
        EXPECT_EQ(std::memcmp(got.data(), expect.data(),
                              expect.size() * sizeof(float)),
                  0)
            << "k=" << k << " special=" << special
            << " build=" << build_name(build);
      }
    }
}

TEST(BackendParity, ReferenceAndBlockedNeverFuse) {
  // p = a * a rounds away its last 2^-24, so c + p is exactly 0 while a
  // fused multiply-add keeps 2^-24. A kernel built with FMA (a target
  // string, -march=native, or a contracting compiler default) fails here;
  // the seed-loop oracles cannot see that, being built with the same flags.
  const float a = 1.0f + std::ldexp(1.0f, -12);
  const float c = -(1.0f + std::ldexp(1.0f, -11));
  volatile float product = a * a;
  const float unfused = c + product;
  ASSERT_EQ(unfused, 0.0f);
  ASSERT_NE(std::fma(a, a, c), unfused);
  for (const ComputeBackend backend :
       {ComputeBackend::kReference, ComputeBackend::kBlocked}) {
    const BackendScope scope(backend);
    // 1 x 1 x 1 with C = c: the product meets C directly.
    const float one_a[] = {a}, one_b[] = {a};
    float one_c[] = {c};
    gemm_acc(1, 1, 1, one_a, one_b, one_c);
    EXPECT_EQ(one_c[0], unfused) << backend_name(backend) << " k=1";
    // 1 x 1 x 2 from C = 0: the product meets the running sum c, which is
    // where the blocked micro-kernel would fuse.
    const float two_a[] = {1.0f, a}, two_b[] = {c, a};
    float two_c[] = {0.0f};
    gemm_acc(1, 1, 2, two_a, two_b, two_c);
    EXPECT_EQ(two_c[0], unfused) << backend_name(backend) << " k=2";
  }
  for (const detail::KernelBuild build : kAllBuilds) {
    if (!detail::kernel_build_supported(build)) continue;
    // A full micro tile whose every element runs c + a * a.
    std::vector<float> ap(2 * detail::kMicroRows), bp(2 * detail::kMicroCols);
    std::fill(ap.begin(), ap.begin() + detail::kMicroRows, 1.0f);
    std::fill(ap.begin() + detail::kMicroRows, ap.end(), a);
    std::fill(bp.begin(), bp.begin() + detail::kMicroCols, c);
    std::fill(bp.begin() + detail::kMicroCols, bp.end(), a);
    std::vector<float> tile(detail::kMicroRows * detail::kMicroCols, 1.0f);
    detail::blocked_micro(build, 2, ap.data(), bp.data(), tile.data());
    for (const float v : tile)
      EXPECT_EQ(v, unfused) << "blocked " << build_name(build);
  }
}

// The seed's reference gemm_bt_acc loop, verbatim: the oracle the packed
// engine, which the reference backend runs gemm_bt_acc on, must match bit
// for bit.
void seed_gemm_bt_loop(int m, int n, int k, const float* a, const float* b,
                       float* c) {
  // B is n x k; dot products of A rows with B rows.
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::ptrdiff_t>(i) * k;
    float* crow = c + static_cast<std::ptrdiff_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::ptrdiff_t>(j) * k;
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] += acc;
    }
  }
}

TEST(BackendParity, ReferenceBtGemmIsBitIdenticalToTheSeedLoop) {
  // Widths and row counts straddle the packed engine's 16-column strip and
  // 4-row panel, so partial tiles run with zero-padded lanes.
  // NaN outputs must sit where the seed's do; their payload and sign are
  // not compared (two compilations of the seed loop already differ there).
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(2025);
  for (const int m : {1, 3, 8, 17})
    for (const int n : {1, 7, 15, 16, 17, 24, 96, 131})
      for (const int k : {1, 5, 24, 96, 130})
        for (const bool special : {false, true}) {
          auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
          auto b = random_vec(static_cast<std::size_t>(n) * k, rng);
          auto c0 = random_vec(static_cast<std::size_t>(m) * n, rng);
          for (std::size_t i = 0; i < a.size(); i += 3)
            a[i] = i % 2 == 0 ? 0.0f : -0.0f;
          for (std::size_t i = 1; i < b.size(); i += 5) b[i] = -0.0f;
          for (std::size_t i = 0; i < c0.size(); i += 4) c0[i] = -0.0f;
          if (special) {
            for (std::size_t i = 0; i < b.size(); i += 11)
              b[i] = i % 3 == 0 ? inf : (i % 3 == 1 ? -inf : nan);
            for (std::size_t i = 2; i < a.size(); i += 13)
              a[i] = i % 2 == 0 ? -inf : nan;
          }
          std::vector<float> expect = c0;
          seed_gemm_bt_loop(m, n, k, a.data(), b.data(), expect.data());
          const auto got = run_variant(Variant::kGemmBtAcc,
                                       ComputeBackend::kReference, m, n, k, a,
                                       b, c0);
          std::size_t mismatches = 0;
          for (std::size_t i = 0; i < expect.size(); ++i)
            mismatches += std::isnan(expect[i])
                              ? !std::isnan(got[i])
                              : std::memcmp(&got[i], &expect[i],
                                            sizeof(float)) != 0;
          EXPECT_EQ(mismatches, 0u) << "m=" << m << " n=" << n << " k=" << k
                                    << " special=" << special;
        }
}

TEST(BackendParity, SimdDriftsFromReferenceWhenAVectorIsaDispatches) {
  // FMA's single rounding makes the simd kernel a genuinely different float
  // profile — the measured noise the axis exists for. Only asserted when a
  // vector ISA actually dispatched (the scalar fallback shares the blocked
  // kernel's arithmetic).
  if (std::string(simd_isa_name()) == "scalar") GTEST_SKIP();
  Rng rng(3);
  const int m = 32, n = 48, k = 96;
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  const std::vector<float> c0(static_cast<std::size_t>(m) * n, 0.0f);
  const auto ref =
      run_variant(Variant::kGemm, ComputeBackend::kReference, m, n, k, a, b, c0);
  const auto simd =
      run_variant(Variant::kGemm, ComputeBackend::kSimd, m, n, k, a, b, c0);
  EXPECT_GT(max_abs_diff(ref, simd), 0.0f);
}

TEST(BackendParity, GatherIsGemmOnTheGatheredMatrixUnderEveryBackend) {
  // Conv-like offsets over a zero-padded [c, hp, wp] source: B row
  // kk = (ci, ky, kx) starts at koff[kk], column j = (oy, ox) adds coff[j].
  // A holds +0 and -0. When `poison` is non-finite, channel 0 holds it at
  // four places (stride 2 skips some of them), and every A value that reads
  // channel 0 is zero: the seed gemm skips them, the packed engine does not.
  struct Case {
    int m, c, h, w, k, stride, pad;
  };
  const Case cases[] = {{1, 1, 9, 7, 3, 1, 1},   {5, 2, 9, 7, 3, 2, 1},
                        {8, 3, 21, 19, 3, 1, 1}, {6, 2, 21, 19, 1, 2, 0},
                        {4, 3, 8, 8, 5, 1, 2},   {3, 2, 6, 3, 3, 2, 2}};
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(2027);
  for (const Case& cs : cases)
    for (const float poison : {1.0f, nan, inf, -inf}) {
      const int hp = cs.h + 2 * cs.pad, wp = cs.w + 2 * cs.pad;
      const int oh = (hp - cs.k) / cs.stride + 1;
      const int ow = (wp - cs.k) / cs.stride + 1;
      const int n = oh * ow, k = cs.c * cs.k * cs.k;
      std::vector<float> src(static_cast<std::size_t>(cs.c) * hp * wp, 0.0f);
      for (int ci = 0; ci < cs.c; ++ci)
        for (int y = 0; y < cs.h; ++y)
          for (int x = 0; x < cs.w; ++x)
            src[(static_cast<std::size_t>(ci) * hp + y + cs.pad) * wp + x +
                cs.pad] = rng.uniform_f(-2.0f, 2.0f);
      const bool poisoned = !std::isfinite(poison);
      if (poisoned)
        for (const auto& [y, x] : {std::pair{0, 0}, std::pair{1, 1},
                                   std::pair{cs.h / 2, cs.w - 1},
                                   std::pair{cs.h - 1, cs.w / 2}})
          src[static_cast<std::size_t>(y + cs.pad) * wp + x + cs.pad] = poison;
      std::vector<int> koff, coff;
      for (int ci = 0; ci < cs.c; ++ci)
        for (int ky = 0; ky < cs.k; ++ky)
          for (int kx = 0; kx < cs.k; ++kx)
            koff.push_back((ci * hp + ky) * wp + kx);
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox)
          coff.push_back((oy * wp + ox) * cs.stride);
      auto a = random_vec(static_cast<std::size_t>(cs.m) * k, rng);
      for (std::size_t i = 0; i < a.size(); i += 3)
        a[i] = i % 2 == 0 ? 0.0f : -0.0f;
      if (poisoned)
        for (int i = 0; i < cs.m; ++i)
          for (int kk = 0; kk < cs.k * cs.k; ++kk)
            a[static_cast<std::size_t>(i) * k + kk] = kk % 2 == 0 ? 0.0f : -0.0f;
      std::vector<float> bmat(static_cast<std::size_t>(k) * n);
      for (int kk = 0; kk < k; ++kk)
        for (int j = 0; j < n; ++j)
          bmat[static_cast<std::size_t>(kk) * n + j] = src[koff[kk] + coff[j]];
      for (const ComputeBackend backend : kAllBackends) {
        const BackendScope scope(backend);
        std::vector<float> expect(static_cast<std::size_t>(cs.m) * n);
        gemm(cs.m, n, k, a.data(), bmat.data(), expect.data());
        std::vector<float> got(expect.size(), 7.0f);
        gemm_gather(cs.m, n, k, a.data(), src.data(), koff.data(), coff.data(),
                    got.data());
        EXPECT_EQ(std::memcmp(got.data(), expect.data(),
                              expect.size() * sizeof(float)),
                  0)
            << backend_name(backend) << " m=" << cs.m << " c=" << cs.c << " "
            << cs.h << "x" << cs.w << " k=" << cs.k << " s=" << cs.stride
            << " p=" << cs.pad << " poison=" << poison;
      }
    }
}

// ---------------------------------------------------------------------------
// Reference zero-skip vs IEEE non-finite propagation (the satellite bug)
// ---------------------------------------------------------------------------

TEST(BackendNonFinite, ZeroSkipIsAReferenceOnlyProperty) {
  // A = [0, 1] row; B rows: b[0] = inf (hit only through a zero weight),
  // b[1] finite. IEEE says 0 * inf = NaN must poison the output; the
  // reference kernels' zero-skip drops that, as documented.
  const float inf = std::numeric_limits<float>::infinity();
  const int m = 1, n = 4, k = 2;
  const std::vector<float> a = {0.0f, 1.0f};            // m x k
  const std::vector<float> b = {inf,  inf,  inf,  inf,  // k x n, row 0
                                1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> c0(static_cast<std::size_t>(m) * n, 0.0f);

  for (const Variant v : {Variant::kGemm, Variant::kGemmAcc, Variant::kGemmAt,
                          Variant::kGemmAtAcc}) {
    // a is symmetric (1 x 2 == 2 x 1 transposed reads the same buffer).
    const auto ref = run_variant(v, ComputeBackend::kReference, m, n, k, a, b, c0);
    for (int j = 0; j < n; ++j)
      EXPECT_TRUE(std::isfinite(ref[static_cast<std::size_t>(j)]))
          << variant_name(v) << " j=" << j;
    for (const ComputeBackend backend :
         {ComputeBackend::kBlocked, ComputeBackend::kSimd}) {
      const auto out = run_variant(v, backend, m, n, k, a, b, c0);
      for (int j = 0; j < n; ++j)
        EXPECT_TRUE(std::isnan(out[static_cast<std::size_t>(j)]))
            << variant_name(v) << " " << backend_name(backend) << " j=" << j;
    }
  }

  // gemm_bt_acc never had the skip: every backend propagates. B is n x k
  // with an inf in each row's k=0 slot.
  const std::vector<float> bt = {inf, 1.0f, inf, 2.0f, inf, 3.0f, inf, 4.0f};
  for (const ComputeBackend backend : kAllBackends) {
    const auto out =
        run_variant(Variant::kGemmBtAcc, backend, m, n, k, a, bt, c0);
    for (int j = 0; j < n; ++j)
      EXPECT_TRUE(std::isnan(out[static_cast<std::size_t>(j)]))
          << backend_name(backend) << " j=" << j;
  }
}

TEST(BackendNonFinite, NonReferenceBackendsPropagateNaNInputs) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const int m = 3, n = 5, k = 4;
  Rng rng(9);
  auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  a[k] = nan;  // poison row 1
  const std::vector<float> c0(static_cast<std::size_t>(m) * n, 0.0f);
  for (const ComputeBackend backend : kAllBackends) {
    const auto out = run_variant(Variant::kGemm, backend, m, n, k, a, b, c0);
    for (int j = 0; j < n; ++j) {
      EXPECT_TRUE(std::isfinite(out[static_cast<std::size_t>(j)]))
          << backend_name(backend);  // row 0 untouched
      EXPECT_TRUE(std::isnan(out[static_cast<std::size_t>(n + j)]))
          << backend_name(backend);  // row 1 poisoned
    }
  }
}

// ---------------------------------------------------------------------------
// Scratch arena
// ---------------------------------------------------------------------------

TEST(Backend, ScratchSlotsGrowGeometricallyAndKeepTheirBuffer) {
  // A fresh thread, so no earlier test's high-water mark is in its slots.
  std::thread([] {
    float* p = tls_scratch(1000, 3);
    EXPECT_EQ(tls_scratch(10, 3), p);  // a smaller request reuses the buffer
    EXPECT_EQ(tls_scratch(1000, 3), p);
    // A new high-water mark at least doubles the slot...
    float* q = tls_scratch(1001, 3);
    q[1999] = 1.0f;
    EXPECT_EQ(tls_scratch(2000, 3), q);
    EXPECT_EQ(tls_scratch(1500, 3), q);
    // ...and always holds the floats asked for.
    float* r = tls_scratch(10000, 3);
    r[9999] = 1.0f;
    EXPECT_EQ(tls_scratch(10000, 3), r);
    EXPECT_NE(tls_scratch(10, 2), r);  // slots are separate buffers
  }).join();
}

// ---------------------------------------------------------------------------
// conv2d im2col edge cases, per backend
// ---------------------------------------------------------------------------

// Direct O(everything) convolution oracle.
Tensor conv_oracle(const Tensor& x, const Tensor& w, const float* bias,
                   int stride, int pad, int groups) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int oc = w.dim(0), icg = w.dim(1), k = w.dim(2);
  const int oh = (h + 2 * pad - k) / stride + 1;
  const int ow = (wd + 2 * pad - k) / stride + 1;
  const int ocg = oc / groups;
  Tensor out({n, oc, oh, ow});
  for (int ni = 0; ni < n; ++ni)
    for (int co = 0; co < oc; ++co) {
      const int g = co / ocg;
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox) {
          double acc = bias != nullptr ? bias[co] : 0.0;
          for (int ci = 0; ci < icg; ++ci)
            for (int ky = 0; ky < k; ++ky)
              for (int kx = 0; kx < k; ++kx) {
                const int iy = oy * stride - pad + ky;
                const int ix = ox * stride - pad + kx;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
                acc += static_cast<double>(
                           x.at4(ni, g * icg + ci, iy, ix)) *
                       w.at4(co, ci, ky, kx);
              }
          out.at4(ni, co, oy, ox) = static_cast<float>(acc);
        }
    }
  (void)c;
  return out;
}

Tensor random_tensor(std::vector<int> shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (float& v : t.vec()) v = rng.uniform_f(-1.0f, 1.0f);
  return t;
}

struct ConvCase {
  int n, c, h, w, oc, k, stride, pad, groups;
};

TEST(BackendConv, Im2colEdgeCasesMatchDirectConvolutionPerBackend) {
  const std::vector<ConvCase> cases = {
      {2, 3, 8, 8, 4, 3, 1, 1, 1},   // plain 3x3 same-pad
      {1, 4, 7, 5, 6, 3, 2, 1, 1},   // stride 2, odd sizes
      {2, 4, 6, 6, 8, 1, 1, 0, 1},   // 1x1 pointwise
      {1, 6, 9, 9, 6, 3, 2, 0, 3},   // grouped, stride 2, no pad
      {1, 8, 5, 5, 8, 3, 1, 2, 8},   // depthwise, pad > stride
      {1, 2, 4, 4, 2, 4, 4, 0, 1},   // kernel == input tile, stride = k
  };
  Rng rng(123);
  for (const ConvCase& cc : cases) {
    const Tensor x = random_tensor({cc.n, cc.c, cc.h, cc.w}, rng);
    const Tensor w =
        random_tensor({cc.oc, cc.c / cc.groups, cc.k, cc.k}, rng);
    Tensor bias = random_tensor({cc.oc}, rng);
    const Tensor expect =
        conv_oracle(x, w, bias.data(), cc.stride, cc.pad, cc.groups);
    for (const ComputeBackend backend : kAllBackends) {
      nn::Tape tape;
      tape.ctx.backend = backend;
      nn::Param wp(w), bp(bias);
      nn::Node* in = tape.input(x);
      nn::Node* y =
          nn::conv2d(tape, in, wp, &bp, {cc.stride, cc.pad, cc.groups}, "t");
      ASSERT_EQ(y->value.shape(), expect.shape());
      const float tol = 1e-4f;
      for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_NEAR(y->value[i], expect[i], tol)
            << backend_name(backend) << " case n=" << cc.n << " g=" << cc.groups
            << " k=" << cc.k << " i=" << i;
    }
  }
}

TEST(BackendConv, ForwardIsBitExactPerBackendAcrossRepeatsAndFanOut) {
  Rng rng(321);
  const Tensor x = random_tensor({3, 4, 9, 9}, rng);
  const Tensor w = random_tensor({6, 2, 3, 3}, rng);
  for (const ComputeBackend backend : kAllBackends) {
    std::vector<float> first;
    for (int rep = 0; rep < 3; ++rep) {
      nn::Tape tape;
      tape.ctx.backend = backend;
      nn::Param wp(w);
      nn::Node* in = tape.input(x);
      nn::Node* y = nn::conv2d(tape, in, wp, nullptr, {1, 1, 2}, "t");
      if (rep == 0)
        first = y->value.vec();
      else
        EXPECT_EQ(first, y->value.vec())
            << backend_name(backend) << " rep=" << rep;
    }
  }
}

TEST(BackendConv, BackwardGradientsAgreeAcrossBackendsWithinEpsilon) {
  Rng rng(55);
  const Tensor x = random_tensor({2, 4, 6, 6}, rng);
  const Tensor w = random_tensor({4, 2, 3, 3}, rng);
  std::vector<float> ref_gw, ref_gx;
  for (const ComputeBackend backend : kAllBackends) {
    nn::Tape tape;
    tape.ctx.backend = backend;
    nn::Param wp(w);
    nn::Node* in = tape.input(x, /*requires_grad=*/true);
    nn::Node* y = nn::conv2d(tape, in, wp, nullptr, {1, 1, 2}, "t");
    // Loss = sum(y) as a linear layer of ones over the flattened output, so
    // dL/dy = 1 everywhere (exactly, on every backend).
    const int numel = static_cast<int>(y->value.size());
    nn::Param ones(Tensor::full({1, numel}, 1.0f));
    nn::Node* loss = nn::linear(tape, nn::reshape(tape, y, {1, numel}), ones,
                                nullptr, "sum");
    tape.backward(loss);
    if (backend == ComputeBackend::kReference) {
      ref_gw = wp.grad.vec();
      ref_gx = in->grad.vec();
    } else {
      EXPECT_LE(max_abs_diff(ref_gw, wp.grad.vec()), 1e-3f)
          << backend_name(backend);
      EXPECT_LE(max_abs_diff(ref_gx, in->grad.vec()), 1e-3f)
          << backend_name(backend);
    }
  }
}

// The seed's per-element im2col gather and col2im scatter, verbatim: the
// oracle conv that the row-wise gather and the in-place 1x1 columns must
// match, forward and backward.
void seed_im2col(const Tensor& x, int n, int c_begin, int c_count, int k,
                 int stride, int pad, int oh, int ow, float* col) {
  const int h = x.dim(2), w = x.dim(3);
  for (int c = 0; c < c_count; ++c)
    for (int ky = 0; ky < k; ++ky)
      for (int kx = 0; kx < k; ++kx) {
        float* row = col + static_cast<std::size_t>((c * k + ky) * k + kx) * oh * ow;
        for (int oy = 0; oy < oh; ++oy) {
          const int iy = oy * stride - pad + ky;
          for (int ox = 0; ox < ow; ++ox) {
            const int ix = ox * stride - pad + kx;
            row[oy * ow + ox] =
                (iy >= 0 && iy < h && ix >= 0 && ix < w)
                    ? x.at4(n, c_begin + c, iy, ix)
                    : 0.0f;
          }
        }
      }
}

void seed_col2im_acc(const float* col, int n, int c_begin, int c_count, int k,
                     int stride, int pad, int oh, int ow, Tensor& gx) {
  const int h = gx.dim(2), w = gx.dim(3);
  for (int c = 0; c < c_count; ++c)
    for (int ky = 0; ky < k; ++ky)
      for (int kx = 0; kx < k; ++kx) {
        const float* row = col + static_cast<std::size_t>((c * k + ky) * k + kx) * oh * ow;
        for (int oy = 0; oy < oh; ++oy) {
          const int iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= h) continue;
          for (int ox = 0; ox < ow; ++ox) {
            const int ix = ox * stride - pad + kx;
            if (ix < 0 || ix >= w) continue;
            gx.at4(n, c_begin + c, iy, ix) += row[oy * ow + ox];
          }
        }
      }
}

// conv2d as the seed computed it: the ctx's deployment-precision view of
// input and weights, the seed gather, one GEMM per (image, group) under the
// ctx's backend, then the bias.
Tensor seed_conv(const nn::InferenceCtx& ctx, const Tensor& x, const Tensor& w,
                 const Tensor& bias, const ConvCase& cc) {
  Tensor xin = x;
  nn::apply_activation_precision(ctx, "t.in", xin);
  const Tensor wq = nn::apply_weight_precision(ctx, w);
  const BackendScope scope(ctx.backend);
  const int icg = cc.c / cc.groups, ocg = cc.oc / cc.groups, k = cc.k;
  const int oh = (cc.h + 2 * cc.pad - k) / cc.stride + 1;
  const int ow = (cc.w + 2 * cc.pad - k) / cc.stride + 1;
  const int col_rows = icg * k * k;
  Tensor out({cc.n, cc.oc, oh, ow});
  std::vector<float> col(static_cast<std::size_t>(col_rows) * oh * ow);
  for (int ni = 0; ni < cc.n; ++ni)
    for (int g = 0; g < cc.groups; ++g) {
      seed_im2col(xin, ni, g * icg, icg, k, cc.stride, cc.pad, oh, ow, col.data());
      gemm(ocg, oh * ow, col_rows,
           wq.data() + static_cast<std::size_t>(g) * ocg * col_rows, col.data(),
           &out.at4(ni, g * ocg, 0, 0));
    }
  for (int ni = 0; ni < cc.n; ++ni)
    for (int ci = 0; ci < cc.oc; ++ci) {
      float* p = &out.at4(ni, ci, 0, 0);
      for (int i = 0; i < oh * ow; ++i) p[i] += bias[static_cast<std::size_t>(ci)];
    }
  return out;
}

// The seed's conv2d backward for upstream grad gy: grads of the weights and
// of the input, accumulated into zeroed tensors.
void seed_conv_backward(const Tensor& x, const Tensor& w, const Tensor& gy,
                        const ConvCase& cc, ComputeBackend backend, Tensor& gw,
                        Tensor& gx) {
  const BackendScope scope(backend);
  const int icg = cc.c / cc.groups, ocg = cc.oc / cc.groups, k = cc.k;
  const int oh = gy.dim(2), ow = gy.dim(3);
  const int col_rows = icg * k * k;
  std::vector<float> col(static_cast<std::size_t>(col_rows) * oh * ow);
  std::vector<float> gcol(col.size());
  for (int ni = 0; ni < cc.n; ++ni)
    for (int g = 0; g < cc.groups; ++g) {
      seed_im2col(x, ni, g * icg, icg, k, cc.stride, cc.pad, oh, ow, col.data());
      const float* gout =
          gy.data() + static_cast<std::size_t>(ni * cc.oc + g * ocg) * oh * ow;
      gemm_bt_acc(ocg, col_rows, oh * ow, gout, col.data(),
                  gw.data() + static_cast<std::size_t>(g) * ocg * col_rows);
      gemm_at(col_rows, oh * ow, ocg,
              w.data() + static_cast<std::size_t>(g) * ocg * col_rows, gout,
              gcol.data());
      seed_col2im_acc(gcol.data(), ni, g * icg, icg, k, cc.stride, cc.pad, oh, ow,
                      gx);
    }
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// conv2d of one case under every backend and each of `precisions`, twice on
// fresh tapes: the forward, and at FP32 the backward under each pass's own
// random upstream gradient, must be bytewise the seed im2col conv's under
// the same backend.
void expect_seed_conv_bytes(const ConvCase& cc, const Tensor& x, const Tensor& w,
                            const Tensor& bias,
                            std::initializer_list<nn::Precision> precisions,
                            Rng& rng) {
  nn::ActRanges ranges;
  ranges["t.in"].observe(x);
  for (const ComputeBackend backend : kAllBackends)
    for (const nn::Precision precision : precisions) {
      nn::InferenceCtx ctx;
      ctx.backend = backend;
      ctx.precision = precision;
      ctx.ranges = &ranges;
      const Tensor expect = seed_conv(ctx, x, w, bias, cc);
      for (int pass = 0; pass < 2; ++pass) {
        nn::Tape tape;
        tape.ctx = ctx;
        nn::Param wp(w), bp(bias);
        nn::Node* in = tape.input(x, /*requires_grad=*/true);
        nn::Node* y =
            nn::conv2d(tape, in, wp, &bp, {cc.stride, cc.pad, cc.groups}, "t");
        const std::string where =
            std::string(backend_name(backend)) + " " +
            nn::precision_name(precision) + " k=" + std::to_string(cc.k) +
            " s=" + std::to_string(cc.stride) + " p=" + std::to_string(cc.pad) +
            " " + std::to_string(cc.h) + "x" + std::to_string(cc.w) +
            " g=" + std::to_string(cc.groups) + " pass=" + std::to_string(pass);
        EXPECT_TRUE(same_bytes(y->value, expect)) << where;
        if (precision != nn::Precision::kFP32) continue;
        // Backward (straight-through, so FP32 only): a random upstream grad
        // through a linear head.
        const int numel = static_cast<int>(y->value.size());
        nn::Param head(random_tensor({1, numel}, rng));
        tape.backward(
            nn::linear(tape, nn::reshape(tape, y, {1, numel}), head, nullptr, "h"));
        Tensor gw(w.shape()), gx(x.shape());
        seed_conv_backward(x, w, y->grad, cc, backend, gw, gx);
        EXPECT_TRUE(same_bytes(wp.grad, gw)) << where << " grad_w";
        EXPECT_TRUE(same_bytes(in->grad, gx)) << where << " grad_x";
      }
    }
}

TEST(BackendConv, ForwardAndBackwardAreBytewiseTheSeedIm2colConv) {
  // Every kernel/stride/pad combination over an odd-sized image whose last
  // window overhangs, and a narrow one (w < k for k >= 5), for a plain, a
  // grouped and a depthwise conv. k=1/stride 1/pad 0 is the in-place 1x1
  // path; pad 2 with k <= 3 pads more than k/2.
  struct Grouping {
    int n, c, oc, groups;
  };
  const Grouping groupings[] = {{1, 4, 6, 1}, {2, 4, 4, 2}, {2, 3, 3, 3}};
  const std::array<int, 2> sizes[] = {{9, 7}, {6, 3}};
  Rng rng(77);
  int cases = 0;
  for (const int k : {1, 3, 5, 7})
    for (const int stride : {1, 2, 3})
      for (const int pad : {0, 1, 2})
        for (const auto& [h, wd] : sizes)
          for (const Grouping& gp : groupings) {
            if (h + 2 * pad < k || wd + 2 * pad < k) continue;
            const ConvCase cc{gp.n, gp.c, h, wd, gp.oc, k, stride, pad, gp.groups};
            const Tensor x = random_tensor({cc.n, cc.c, cc.h, cc.w}, rng);
            const Tensor w = random_tensor({cc.oc, cc.c / cc.groups, k, k}, rng);
            const Tensor bias = random_tensor({cc.oc}, rng);
            ++cases;
            expect_seed_conv_bytes(cc, x, w, bias,
                                   {nn::Precision::kFP32, nn::Precision::kFP16,
                                    nn::Precision::kINT8},
                                   rng);
          }
  EXPECT_EQ(cases, 189);
}

TEST(BackendConv, GatheredColumnsAreBytewiseTheSeedConvOnWideGroupedImages) {
  // A 21x19 image: at stride 1 some 16-column B strips lie inside one output
  // row (one contiguous run of the padded input) and others cross a row
  // boundary. The groupings cover one image in one group with 12 output
  // rows, a grouped icg = 4 conv, a two-image grouped icg = 3 conv and a
  // depthwise conv.
  const ConvCase shapes[] = {{1, 4, 21, 19, 12, 0, 0, 0, 1},
                             {1, 8, 21, 19, 16, 0, 0, 0, 2},
                             {2, 6, 21, 19, 8, 0, 0, 0, 2},
                             {1, 3, 21, 19, 3, 0, 0, 0, 3}};
  Rng rng(78);
  int cases = 0;
  for (const int k : {1, 3, 5})
    for (const int stride : {1, 2})
      for (const int pad : {0, 1, 2})
        for (ConvCase cc : shapes) {
          cc.k = k;
          cc.stride = stride;
          cc.pad = pad;
          const Tensor x = random_tensor({cc.n, cc.c, cc.h, cc.w}, rng);
          const Tensor w = random_tensor({cc.oc, cc.c / cc.groups, k, k}, rng);
          const Tensor bias = random_tensor({cc.oc}, rng);
          ++cases;
          expect_seed_conv_bytes(cc, x, w, bias, {nn::Precision::kFP32}, rng);
        }
  EXPECT_EQ(cases, 72);
}

TEST(BackendConv, NonFiniteInputsKeepTheSeedZeroSkipOnlyUnderReference) {
  // Input channel 0 holds one kind of non-finite value (NaN, +inf or -inf)
  // at three places, and every weight that reads channel 0 is an exact
  // zero. The reference conv must stay the seed conv, whose zero-skip never
  // multiplies those values: all outputs finite. Blocked and simd multiply
  // them (0 x inf = 0 x NaN = NaN), so every output whose window covers one
  // is NaN.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(79);
  // Plain, grouped and depthwise (groups == c, two outputs per channel).
  const std::array<int, 2> groupings[] = {{1, 6}, {2, 6}, {4, 8}};
  for (const float poison : {nan, inf, -inf})
    for (const auto& [groups, oc] : groupings) {
      const ConvCase cc{2, 4, 21, 19, oc, 3, 1, 1, groups};
      Tensor x = random_tensor({cc.n, cc.c, cc.h, cc.w}, rng);
      x.at4(0, 0, 4, 5) = poison;
      x.at4(0, 0, 12, 17) = poison;
      x.at4(1, 0, 20, 0) = poison;
      Tensor w = random_tensor({cc.oc, cc.c / groups, cc.k, cc.k}, rng);
      const int ocg = cc.oc / groups;
      for (int o = 0; o < ocg; ++o)  // group 0's weights on input channel 0
        for (int ky = 0; ky < cc.k; ++ky)
          for (int kx = 0; kx < cc.k; ++kx) w.at4(o, 0, ky, kx) = 0.0f;
      const Tensor bias = random_tensor({cc.oc}, rng);
      expect_seed_conv_bytes(cc, x, w, bias, {nn::Precision::kFP32}, rng);
      for (const ComputeBackend backend : kAllBackends) {
        nn::Tape tape;
        tape.ctx.backend = backend;
        nn::Param wp(w), bp(bias);
        const Tensor& y =
            nn::conv2d(tape, tape.input(x), wp, &bp, {1, 1, groups}, "t")->value;
        const std::string where = std::string(backend_name(backend)) +
                                  " g=" + std::to_string(groups) +
                                  " poison=" + std::to_string(poison);
        if (backend == ComputeBackend::kReference) {
          for (const float v : y.vec()) ASSERT_TRUE(std::isfinite(v)) << where;
          continue;
        }
        // Stride 1, pad 1: output (oy, ox) is centred on input (oy, ox).
        for (int o = 0; o < ocg; ++o) {
          EXPECT_TRUE(std::isnan(y.at4(0, o, 4, 5))) << where << " o=" << o;
          EXPECT_TRUE(std::isnan(y.at4(0, o, 12, 17))) << where << " o=" << o;
          EXPECT_TRUE(std::isnan(y.at4(1, o, 20, 0))) << where << " o=" << o;
          EXPECT_TRUE(std::isfinite(y.at4(1, o, 0, 18))) << where << " o=" << o;
        }
      }
    }
}

// The seed's max-pool, verbatim: strict `v > best` scan that records each
// output's argmax, and the backward that scatters through it.
struct SeedPool {
  Tensor out;
  std::vector<int> argmax;
};

SeedPool seed_maxpool(const Tensor& x, int kernel, int stride, int pad,
                      bool ceil_mode) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int oh = nn::pooled_size(h, kernel, stride, pad, ceil_mode);
  const int ow = nn::pooled_size(w, kernel, stride, pad, ceil_mode);
  SeedPool r{Tensor({n, c, oh, ow}), {}};
  r.argmax.resize(r.out.size());
  for (int ni = 0; ni < n; ++ni)
    for (int ci = 0; ci < c; ++ci)
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          int best_idx = -1;
          for (int ky = 0; ky < kernel; ++ky) {
            const int iy = oy * stride - pad + ky;
            if (iy < 0 || iy >= h) continue;
            for (int kx = 0; kx < kernel; ++kx) {
              const int ix = ox * stride - pad + kx;
              if (ix < 0 || ix >= w) continue;
              const float v = x.at4(ni, ci, iy, ix);
              if (v > best) {
                best = v;
                best_idx = iy * w + ix;
              }
            }
          }
          r.out.at4(ni, ci, oy, ox) = best_idx >= 0 ? best : 0.0f;
          r.argmax[static_cast<std::size_t>(((ni * c + ci) * oh + oy) * ow + ox)] =
              best_idx;
        }
  return r;
}

Tensor seed_maxpool_grad(const SeedPool& p, const Tensor& gy, const Tensor& x) {
  const int c = x.dim(1), w = x.dim(3), oh = gy.dim(2), ow = gy.dim(3);
  Tensor gx(x.shape());
  for (int ni = 0; ni < gy.dim(0); ++ni)
    for (int ci = 0; ci < c; ++ci)
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox) {
          const int idx =
              p.argmax[static_cast<std::size_t>(((ni * c + ci) * oh + oy) * ow + ox)];
          if (idx < 0) continue;
          gx.at4(ni, ci, idx / w, idx % w) += gy.at4(ni, ci, oy, ox);
        }
  return gx;
}

TEST(BackendPool, MaxPoolForwardAndBackwardAreBytewiseTheSeedArgmaxPool) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // (kernel, stride, pad): the zoo's 3/2/1 and 2/2/0, plus pads >= kernel
  // whose first window lies entirely in padding.
  const std::array<int, 3> specs[] = {{3, 2, 1}, {2, 2, 0}, {1, 2, 1}, {2, 3, 2}};
  const std::array<int, 2> sizes[] = {{7, 6}, {8, 8}, {5, 9}};
  Rng rng(404);
  int empty_windows = 0;
  for (const auto& [h, w] : sizes) {
    Tensor x = random_tensor({2, 5, h, w}, rng);
    // Channel 1 is all -inf, channel 2 all NaN; channel 3 mixes NaN, -inf
    // and signed zeros (ties the strict rule resolves by scan order); the
    // others get a sprinkle of NaN.
    for (int ni = 0; ni < 2; ++ni)
      for (int iy = 0; iy < h; ++iy)
        for (int ix = 0; ix < w; ++ix) {
          x.at4(ni, 1, iy, ix) = -inf;
          x.at4(ni, 2, iy, ix) = nan;
          const int r = (iy * w + ix + ni) % 4;
          x.at4(ni, 3, iy, ix) = r == 0 ? nan : r == 1 ? -inf : r == 2 ? -0.0f : 0.0f;
          if ((iy * 7 + ix * 3 + ni) % 11 == 0) x.at4(ni, 4, iy, ix) = nan;
        }
    for (const auto& [kernel, stride, pad] : specs)
      for (const bool ceil_mode : {false, true}) {
        const SeedPool seed = seed_maxpool(x, kernel, stride, pad, ceil_mode);
        const std::size_t ohw =
            static_cast<std::size_t>(seed.out.dim(2)) * seed.out.dim(3);
        for (std::size_t i = 0; i < seed.argmax.size(); ++i)
          if (seed.argmax[i] < 0 && (i / ohw) % 5 == 0) ++empty_windows;
        const std::string where = std::to_string(h) + "x" + std::to_string(w) +
                                  " k=" + std::to_string(kernel) +
                                  " s=" + std::to_string(stride) +
                                  " p=" + std::to_string(pad) +
                                  " ceil=" + std::to_string(ceil_mode);
        const Tensor head_w =
            random_tensor({1, static_cast<int>(seed.out.size())}, rng);
        // training: a leaf input on a training tape; TENT: an eval tape whose
        // pool input is an op output (grads flow into it, not a leaf).
        for (const bool tent : {false, true}) {
          nn::Tape tape;
          tape.training = !tent;
          tape.ctx.ceil_mode = ceil_mode;
          nn::Node* in = tape.input(x, /*requires_grad=*/!tent);
          nn::Node* pool_in = tent ? nn::scale(tape, in, 1.0f) : in;
          nn::Node* y = nn::maxpool2d(tape, pool_in, kernel, stride, pad);
          EXPECT_TRUE(same_bytes(y->value, seed.out)) << where << " tent=" << tent;
          const int numel = static_cast<int>(y->value.size());
          nn::Param head(head_w);
          tape.backward(nn::linear(tape, nn::reshape(tape, y, {1, numel}), head,
                                   nullptr, "h"));
          EXPECT_TRUE(same_bytes(pool_in->grad, seed_maxpool_grad(seed, y->grad, x)))
              << where << " tent=" << tent;
        }
      }
  }
  // Windows with no value above -inf in the all-finite channel 0 lie
  // entirely in padding: the padded specs must produce some.
  EXPECT_GT(empty_windows, 0);
}

// ---------------------------------------------------------------------------
// Stage-cache scoping: forward products never mix across backends
// ---------------------------------------------------------------------------

TEST(BackendCaching, ForwardKeysSplitByBackendButPreprocessKeysDoNot) {
  const core::SyntheticStagedTask task(core::TaskKind::kClassification, false,
                                       1, 1, 1, /*fwd_overhead_rounds=*/4);
  SysNoiseConfig ref_cfg;
  ref_cfg.backend = ComputeBackend::kReference;
  SysNoiseConfig blk_cfg = ref_cfg;
  blk_cfg.backend = ComputeBackend::kBlocked;
  // The kernel family touches nothing in stage 1...
  EXPECT_EQ(task.preprocess_key(ref_cfg), task.preprocess_key(blk_cfg));
  // ...but forward products, batch stacks, and metrics are all per-backend.
  EXPECT_NE(task.forward_key(ref_cfg), task.forward_key(blk_cfg));
  EXPECT_NE(task.forward_batch_key(ref_cfg), task.forward_batch_key(blk_cfg));
  EXPECT_NE(ref_cfg.describe(), blk_cfg.describe());
}

// Registry with only the Backend axis: baseline (process default) + the two
// alternate kernel families + Combined.
core::AxisRegistry backend_only_registry() {
  core::AxisRegistry reg;
  core::NoiseAxis a;
  a.name = "Backend";
  a.key = "backend";
  const auto backends = backend_noise_options();
  for (auto b : backends) a.option_labels.push_back(backend_name(b));
  a.apply = [backends](SysNoiseConfig& cfg, int i) {
    cfg.backend = backends[static_cast<std::size_t>(i)];
  };
  reg.add(std::move(a));
  return reg;
}

TEST(BackendCaching, WarmDiskCacheUnderOneBackendNeverServesAnother) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "sysnoise_test_backend_disk";
  std::filesystem::remove_all(dir);
  const core::SyntheticStagedTask task(core::TaskKind::kClassification, false);
  const core::AxisRegistry reg = backend_only_registry();
  const core::SweepPlan plan = core::plan_sweep(task, reg);

  // Cold: baseline + 2 backend options (the Combined config of a backend-
  // only registry coincides with an option and dedups at the metric key) —
  // one preprocess product shared by all configs, but one forward product
  // PER backend. If a cached forward product ever served a different
  // backend, fwd_runs would drop below 3.
  core::DiskStageCache cold_disk(dir.string());
  core::StageStats cold;
  const core::StagedExecutor cold_ex(&cold, &cold_disk);
  const core::MetricMap cold_metrics = cold_ex.execute(task, plan);
  EXPECT_EQ(task.pre_runs(), 1);
  EXPECT_EQ(task.fwd_runs(), 3);
  EXPECT_EQ(cold.forward_misses, 3u);
  EXPECT_EQ(cold.forward_hits, 0u);

  // Warm, fresh process state: every per-backend product comes back from
  // disk under its own key; no stage recomputes, metrics are bit-identical.
  task.reset();
  core::DiskStageCache warm_disk(dir.string());
  core::StageStats warm;
  const core::StagedExecutor warm_ex(&warm, &warm_disk);
  const core::MetricMap warm_metrics = warm_ex.execute(task, plan);
  EXPECT_EQ(warm_metrics, cold_metrics);
  EXPECT_EQ(task.fwd_runs(), 0);
  EXPECT_EQ(warm.forward_disk_hits, 3u);

  // And the three per-backend products really are three distinct values —
  // the synthetic forward folds the backend-qualified key into the product.
  std::set<double> distinct;
  for (const auto& [key, metric] : cold_metrics) distinct.insert(metric);
  EXPECT_EQ(cold_metrics.size(), 3u);
  EXPECT_EQ(distinct.size(), 3u);
  std::filesystem::remove_all(dir);
}

TEST(BackendCaching, ExecutorsStayBitIdenticalPerBackendOnTheBackendAxis) {
  // The per-backend bit-exactness contract, exercised on a plan whose
  // configs span all three kernel families: thread-pool, staged, and
  // sharded execution must agree key-for-key, bit for bit.
  const core::SyntheticStagedTask task(core::TaskKind::kClassification, false);
  const core::AxisRegistry reg = backend_only_registry();
  const core::SweepPlan plan = core::plan_sweep(task, reg);

  core::SweepOptions serial;
  serial.threads = 1;
  const core::MetricMap a = core::ThreadPoolExecutor().execute(task, plan, serial);
  core::SweepOptions parallel;
  parallel.threads = 4;
  const core::MetricMap b = core::ThreadPoolExecutor().execute(task, plan, parallel);
  const core::MetricMap c = core::StagedExecutor().execute(task, plan);
  const core::MetricMap d = core::ShardExecutor::merge(
      plan, {core::ShardExecutor(core::StagedExecutor(), 0, 2).execute(task, plan),
             core::ShardExecutor(core::StagedExecutor(), 1, 2).execute(task, plan)});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(a, d);
}

}  // namespace
}  // namespace sysnoise
