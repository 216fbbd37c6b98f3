#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "tensor/gemm.h"
#include "tensor/half.h"
#include "tensor/layout.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace sysnoise {
namespace {

TEST(Tensor, ConstructAndShape) {
  Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.rank(), 4);
  EXPECT_EQ(t.size(), 120u);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(-1), 5);
  EXPECT_FLOAT_EQ(t[0], 0.0f);
  EXPECT_EQ(t.shape_str(), "[2,3,4,5]");
}

TEST(Tensor, At4RowMajorLayout) {
  Tensor t({1, 2, 3, 4});
  t.at4(0, 1, 2, 3) = 7.0f;
  // Index = ((0*2+1)*3+2)*4+3 = 23.
  EXPECT_FLOAT_EQ(t[23], 7.0f);
}

TEST(Tensor, FromVectorChecksSize) {
  EXPECT_NO_THROW(Tensor::from_vector({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor::from_vector({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, ReshapedPreservesData) {
  Tensor t = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped({3, 2});
  EXPECT_FLOAT_EQ(r.at2(2, 1), 6.0f);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, ElementwiseOps) {
  Tensor a = Tensor::from_vector({3}, {1, 2, 3});
  Tensor b = Tensor::from_vector({3}, {10, 20, 30});
  Tensor c = a + b;
  EXPECT_FLOAT_EQ(c[2], 33.0f);
  c.sub_(a);
  EXPECT_FLOAT_EQ(c[2], 30.0f);
  c.mul_(0.5f);
  EXPECT_FLOAT_EQ(c[0], 5.0f);
  c.add_scaled_(a, 2.0f);
  EXPECT_FLOAT_EQ(c[0], 7.0f);
}

TEST(Tensor, Reductions) {
  Tensor t = Tensor::from_vector({4}, {-3, 1, 2, 0});
  EXPECT_FLOAT_EQ(t.min(), -3.0f);
  EXPECT_FLOAT_EQ(t.max(), 2.0f);
  EXPECT_FLOAT_EQ(t.sum(), 0.0f);
  EXPECT_FLOAT_EQ(t.mean(), 0.0f);
  EXPECT_FLOAT_EQ(t.abs_max(), 3.0f);
}

TEST(Tensor, SliceAndSetFront) {
  Tensor t({3, 2, 2});
  t.at3(1, 1, 0) = 5.0f;
  Tensor s = t.slice_front(1);
  EXPECT_EQ(s.rank(), 2);
  EXPECT_FLOAT_EQ(s.at2(1, 0), 5.0f);
  s.fill(9.0f);
  t.set_front(2, s);
  EXPECT_FLOAT_EQ(t.at3(2, 0, 0), 9.0f);
  EXPECT_FLOAT_EQ(t.at3(0, 0, 0), 0.0f);
}

TEST(Tensor, StackUnstackPartsRoundTripsUnevenFronts) {
  // Uneven fronts (odd + singleton) with rank-3 items: the layout a
  // serving micro-batch of mixed requests relies on.
  Tensor a({3, 2, 2});
  Tensor b({1, 2, 2});
  Tensor c({2, 2, 2});
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(i);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 100.0f + static_cast<float>(i);
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = 200.0f + static_cast<float>(i);

  const Tensor stacked = stack_parts({&a, &b, &c});
  ASSERT_EQ(stacked.shape(), (std::vector<int>{6, 2, 2}));
  // Per-sample layout preserved: part p's sample s sits at front offset
  // (sum of earlier fronts) + s, bit for bit.
  EXPECT_EQ(stacked.at3(0, 0, 0), a.at3(0, 0, 0));
  EXPECT_EQ(stacked.at3(2, 1, 1), a.at3(2, 1, 1));
  EXPECT_EQ(stacked.at3(3, 0, 1), b.at3(0, 0, 1));
  EXPECT_EQ(stacked.at3(4, 1, 0), c.at3(0, 1, 0));

  // Every sample unstacks (slice_front at its offset) to its part's bytes.
  int row = 0;
  for (const Tensor* part : {&a, &b, &c})
    for (int s = 0; s < part->dim(0); ++s, ++row)
      EXPECT_EQ(stacked.slice_front(row).vec(), part->slice_front(s).vec())
          << "row " << row;
  EXPECT_EQ(row, stacked.dim(0));
}

TEST(Tensor, StackUnstackPartsRejectMalformedInput) {
  Tensor a({2, 2});
  Tensor b({2, 3});  // trailing-dim mismatch
  EXPECT_THROW(stack_parts({&a, &b}), std::invalid_argument);
  EXPECT_TRUE(stack_parts({}).empty());
  Tensor c({2, 2, 1});  // rank mismatch
  EXPECT_THROW(stack_parts({&a, &c}), std::invalid_argument);
  const Tensor scalar;  // rank 0
  EXPECT_THROW(stack_parts({&scalar}), std::invalid_argument);
}

TEST(Tensor, DiffMetrics) {
  Tensor a = Tensor::from_vector({2}, {0.0f, 1.0f});
  Tensor b = Tensor::from_vector({2}, {0.5f, -1.0f});
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 2.0f);
  EXPECT_FLOAT_EQ(mse(a, b), (0.25f + 4.0f) / 2.0f);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformIntRange) {
  Rng r(7);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) {
    const int v = r.uniform_int(10);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit
}

TEST(Rng, NormalMoments) {
  Rng r(123);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, PermutationIsPermutation) {
  Rng r(5);
  auto p = r.permutation(50);
  std::set<int> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 50u);
  EXPECT_EQ(*s.begin(), 0);
  EXPECT_EQ(*s.rbegin(), 49);
}

TEST(Half, ExactSmallValues) {
  // Values exactly representable in FP16 survive the round trip.
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, -0.25f, 65504.0f}) {
    EXPECT_FLOAT_EQ(fp16_round(v), v) << v;
  }
}

TEST(Half, RoundsToNearest) {
  // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10 -> ties to even (1.0).
  const float halfway = 1.0f + std::ldexp(1.0f, -11);
  EXPECT_FLOAT_EQ(fp16_round(halfway), 1.0f);
  // Slightly above halfway rounds up.
  const float above = 1.0f + std::ldexp(1.0f, -11) + std::ldexp(1.0f, -14);
  EXPECT_FLOAT_EQ(fp16_round(above), 1.0f + std::ldexp(1.0f, -10));
}

TEST(Half, OverflowToInf) {
  EXPECT_TRUE(std::isinf(fp16_round(70000.0f)));
  EXPECT_TRUE(std::isinf(fp16_round(-70000.0f)));
  EXPECT_LT(fp16_round(-70000.0f), 0.0f);
}

TEST(Half, SubnormalsRepresentable) {
  const float tiny = std::ldexp(1.0f, -24);  // smallest positive subnormal half
  EXPECT_FLOAT_EQ(fp16_round(tiny), tiny);
  const float half_tiny = std::ldexp(1.0f, -26);
  EXPECT_FLOAT_EQ(fp16_round(half_tiny), 0.0f);  // underflow to zero
}

TEST(Half, RelativeErrorBound) {
  Rng r(9);
  for (int i = 0; i < 2000; ++i) {
    const float v = r.uniform_f(-100.0f, 100.0f);
    const float q = fp16_round(v);
    EXPECT_LE(std::fabs(q - v), std::fabs(v) * 0.001f + 1e-6f);
  }
}

TEST(Half, TensorRoundTrip) {
  Tensor t = Tensor::from_vector({3}, {0.1f, -0.2f, 100.3f});
  fp16_round_trip_(t);
  EXPECT_NE(t[0], 0.1f);  // 0.1 is not FP16-representable
  EXPECT_NEAR(t[0], 0.1f, 1e-4f);
  EXPECT_NEAR(t[2], 100.3f, 0.1f);
}

TEST(Gemm, MatchesNaive) {
  Rng r(11);
  const int m = 17, n = 23, k = 31;
  std::vector<float> a(static_cast<std::size_t>(m) * k), b(static_cast<std::size_t>(k) * n),
      c(static_cast<std::size_t>(m) * n), ref(static_cast<std::size_t>(m) * n, 0.0f);
  for (auto& v : a) v = r.uniform_f(-1.0f, 1.0f);
  for (auto& v : b) v = r.uniform_f(-1.0f, 1.0f);
  for (int i = 0; i < m; ++i)
    for (int kk = 0; kk < k; ++kk)
      for (int j = 0; j < n; ++j)
        ref[static_cast<std::size_t>(i) * n + j] += a[static_cast<std::size_t>(i) * k + kk] * b[static_cast<std::size_t>(kk) * n + j];
  gemm(m, n, k, a.data(), b.data(), c.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);
}

TEST(Gemm, TransposedVariantsConsistent) {
  Rng r(13);
  const int m = 5, n = 7, k = 9;
  std::vector<float> a(static_cast<std::size_t>(m) * k), at(static_cast<std::size_t>(k) * m),
      b(static_cast<std::size_t>(k) * n), bt(static_cast<std::size_t>(n) * k);
  for (auto& v : a) v = r.uniform_f(-1.0f, 1.0f);
  for (auto& v : b) v = r.uniform_f(-1.0f, 1.0f);
  for (int i = 0; i < m; ++i)
    for (int kk = 0; kk < k; ++kk)
      at[static_cast<std::size_t>(kk) * m + i] = a[static_cast<std::size_t>(i) * k + kk];
  for (int kk = 0; kk < k; ++kk)
    for (int j = 0; j < n; ++j)
      bt[static_cast<std::size_t>(j) * k + kk] = b[static_cast<std::size_t>(kk) * n + j];

  std::vector<float> c1(static_cast<std::size_t>(m) * n), c2(static_cast<std::size_t>(m) * n),
      c3(static_cast<std::size_t>(m) * n, 0.0f);
  gemm(m, n, k, a.data(), b.data(), c1.data());
  gemm_at(m, n, k, at.data(), b.data(), c2.data());
  gemm_bt_acc(m, n, k, a.data(), bt.data(), c3.data());
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_NEAR(c1[i], c2[i], 1e-4f);
    EXPECT_NEAR(c1[i], c3[i], 1e-4f);
  }
}

TEST(Layout, NhwcPermutationIsLossless) {
  Rng r(21);
  Tensor t({2, 3, 4, 5});
  for (auto& v : t.vec()) v = r.uniform_f(-3.0f, 3.0f);
  const Tensor nhwc = nchw_to_nhwc(t);
  EXPECT_EQ(nhwc.shape(), (std::vector<int>{2, 4, 5, 3}));
  // Spot-check the permutation mapping.
  EXPECT_EQ(nhwc.at4(1, 2, 3, 0), t.at4(1, 0, 2, 3));
  EXPECT_EQ(nhwc.at4(0, 1, 4, 2), t.at4(0, 2, 1, 4));
  const Tensor back = nhwc_to_nchw(nhwc);
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_EQ(back.vec(), t.vec());  // pure data movement, bit-exact

  // Rank-3 [C,H,W] works too.
  Tensor chw({3, 4, 5});
  for (auto& v : chw.vec()) v = r.uniform_f(-3.0f, 3.0f);
  EXPECT_EQ(nhwc_to_nchw(nchw_to_nhwc(chw)).vec(), chw.vec());
}

TEST(Layout, NhwcRoundTripIsFp16StagingNoise) {
  Rng r(22);
  Tensor t({1, 3, 8, 8});
  for (auto& v : t.vec()) v = r.uniform_f(-2.5f, 2.5f);
  Tensor staged = t;
  nhwc_round_trip_(staged);
  EXPECT_EQ(staged.shape(), t.shape());
  // The permutation is lossless, so the round trip equals one FP16 rounding
  // per element — non-zero noise, deterministic.
  bool any_changed = false;
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(staged[i], fp16_round(t[i]));
    any_changed |= staged[i] != t[i];
  }
  EXPECT_TRUE(any_changed);
  Tensor again = t;
  nhwc_round_trip_(again);
  EXPECT_EQ(again.vec(), staged.vec());
}

}  // namespace
}  // namespace sysnoise
