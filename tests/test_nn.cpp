#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <thread>

#include "core/mitigation.h"
#include "models/classifiers.h"
#include "models/zoo.h"
#include "nlp/lm.h"
#include "nlp/tasks.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/ops_extra.h"
#include "nn/optim.h"
#include "nn/serialize.h"
#include "nn/tape.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/rng.h"

namespace sysnoise::nn {
namespace {

// Numeric gradient of scalar_fn w.r.t. a flat position in `target`.
float numeric_grad(Tensor& target, std::size_t idx,
                   const std::function<float()>& scalar_fn, float eps = 1e-3f) {
  const float orig = target[idx];
  target[idx] = orig + eps;
  const float hi = scalar_fn();
  target[idx] = orig - eps;
  const float lo = scalar_fn();
  target[idx] = orig;
  return (hi - lo) / (2.0f * eps);
}

Tensor random_tensor(std::vector<int> shape, Rng& rng, float lo = -1.0f,
                     float hi = 1.0f) {
  Tensor t(std::move(shape));
  for (float& v : t.vec()) v = rng.uniform_f(lo, hi);
  return t;
}

// ---------------------------------------------------------------------------
// Pooled size semantics (the ceil-mode knob)
// ---------------------------------------------------------------------------

TEST(PooledSize, FloorVsCeil) {
  // ResNet stem: 3x3 stride-2 pad-1 pooling.
  EXPECT_EQ(pooled_size(16, 3, 2, 1, false), 8);
  EXPECT_EQ(pooled_size(16, 3, 2, 1, true), 9);
  EXPECT_EQ(pooled_size(32, 3, 2, 1, false), 16);
  EXPECT_EQ(pooled_size(32, 3, 2, 1, true), 17);
  // 2x2 stride-2 on even size: modes agree.
  EXPECT_EQ(pooled_size(16, 2, 2, 0, false), 8);
  EXPECT_EQ(pooled_size(16, 2, 2, 0, true), 8);
  // 2x2 stride-2 on odd size: ceil adds a window.
  EXPECT_EQ(pooled_size(15, 2, 2, 0, false), 7);
  EXPECT_EQ(pooled_size(15, 2, 2, 0, true), 8);
}

TEST(PooledSize, CeilWindowMustTouchInput) {
  // PyTorch rule: drop the last window if it starts beyond input+pad.
  EXPECT_EQ(pooled_size(4, 2, 2, 0, true), 2);
  EXPECT_EQ(pooled_size(3, 2, 2, 1, true), 2);
}

// ---------------------------------------------------------------------------
// Forward semantics
// ---------------------------------------------------------------------------

TEST(OpsForward, Conv2dIdentityKernel) {
  Rng rng(1);
  Tape t;
  Tensor x = random_tensor({1, 1, 4, 4}, rng);
  Param w(Tensor({1, 1, 1, 1}));
  w.value[0] = 2.0f;
  Node* xn = t.input(x);
  Node* y = conv2d(t, xn, w, nullptr, {.stride = 1, .pad = 0, .groups = 1}, "c");
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y->value[i], 2.0f * x[i]);
}

TEST(OpsForward, Conv2dKnownSum) {
  Tape t;
  Tensor x = Tensor::full({1, 1, 3, 3}, 1.0f);
  Param w(Tensor::full({1, 1, 3, 3}, 1.0f));
  Node* y = conv2d(t, t.input(x), w, nullptr, {.stride = 1, .pad = 1, .groups = 1}, "c");
  EXPECT_FLOAT_EQ(y->value.at4(0, 0, 1, 1), 9.0f);  // full window
  EXPECT_FLOAT_EQ(y->value.at4(0, 0, 0, 0), 4.0f);  // corner
}

TEST(OpsForward, DepthwiseConvGroups) {
  Rng rng(2);
  Tape t;
  Tensor x = random_tensor({1, 4, 5, 5}, rng);
  Param w(Tensor({4, 1, 3, 3}));
  for (float& v : w.value.vec()) v = rng.uniform_f(-1.0f, 1.0f);
  Node* y = conv2d(t, t.input(x), w, nullptr, {.stride = 1, .pad = 1, .groups = 4}, "dw");
  // Channel 2 of output depends only on channel 2 of input: verify by
  // recomputing one output value by hand.
  float expect = 0.0f;
  for (int ky = 0; ky < 3; ++ky)
    for (int kx = 0; kx < 3; ++kx) {
      const int iy = 2 + ky - 1, ix = 2 + kx - 1;
      expect += w.value.at4(2, 0, ky, kx) * x.at4(0, 2, iy, ix);
    }
  EXPECT_NEAR(y->value.at4(0, 2, 2, 2), expect, 1e-4f);
}

TEST(OpsForward, Conv2dRejectsGeometryTheKernelDoesNotFit) {
  Rng rng(3);
  Param w3(random_tensor({1, 1, 3, 3}, rng));
  // The output shape of a 3x3 conv over a random input of `shape`.
  auto run = [&](std::vector<int> shape, Conv2dSpec spec) {
    Tape t;
    return conv2d(t, t.input(random_tensor(std::move(shape), rng)), w3, nullptr,
                  spec, "c")
        ->value.shape();
  };
  // Without the check, truncating division gives oh = ow = 1 here and the
  // gather reads past the 2x2 input.
  EXPECT_THROW(run({1, 1, 2, 2}, {.stride = 2, .pad = 0, .groups = 1}),
               std::invalid_argument);
  EXPECT_THROW(run({1, 1, 2, 2}, {.stride = 1, .pad = 0, .groups = 1}),
               std::invalid_argument);
  EXPECT_THROW(run({1, 1, 6, 2}, {.stride = 2, .pad = 0, .groups = 1}),
               std::invalid_argument);  // only the width is too small
  EXPECT_THROW(run({1, 1, 2, 6}, {.stride = 2, .pad = 0, .groups = 1}),
               std::invalid_argument);  // only the height is too small
  EXPECT_THROW(run({1, 1, 5, 5}, {.stride = 0, .pad = 1, .groups = 1}),
               std::invalid_argument);
  EXPECT_THROW(run({1, 1, 5, 5}, {.stride = 1, .pad = -1, .groups = 1}),
               std::invalid_argument);
  // A kernel exactly as large as the padded input fits: one output.
  EXPECT_EQ(run({1, 1, 1, 1}, {.stride = 2, .pad = 1, .groups = 1}),
            (std::vector<int>{1, 1, 1, 1}));
  EXPECT_EQ(run({1, 1, 3, 3}, {.stride = 3, .pad = 0, .groups = 1}),
            (std::vector<int>{1, 1, 1, 1}));
}

TEST(OpsForward, MaxPoolFloorVsCeilShapes) {
  Rng rng(3);
  Tensor x = random_tensor({1, 2, 16, 16}, rng);
  Tape tf;
  Node* yf = maxpool2d(tf, tf.input(x), 3, 2, 1);
  EXPECT_EQ(yf->value.dim(2), 8);
  Tape tc;
  tc.ctx.ceil_mode = true;
  Node* yc = maxpool2d(tc, tc.input(x), 3, 2, 1);
  EXPECT_EQ(yc->value.dim(2), 9);
  // Shared positions agree; the extra border row is new information.
  for (int y = 0; y < 8; ++y)
    for (int xx = 0; xx < 8; ++xx)
      EXPECT_FLOAT_EQ(yf->value.at4(0, 0, y, xx), yc->value.at4(0, 0, y, xx));
}

TEST(OpsForward, UpsampleNearest) {
  Tape t;
  Tensor x({1, 1, 2, 2});
  x.at4(0, 0, 0, 0) = 1;
  x.at4(0, 0, 0, 1) = 2;
  x.at4(0, 0, 1, 0) = 3;
  x.at4(0, 0, 1, 1) = 4;
  Node* y = upsample2x(t, t.input(x));
  EXPECT_EQ(y->value.dim(2), 4);
  EXPECT_FLOAT_EQ(y->value.at4(0, 0, 0, 0), 1);
  EXPECT_FLOAT_EQ(y->value.at4(0, 0, 0, 1), 1);
  EXPECT_FLOAT_EQ(y->value.at4(0, 0, 3, 3), 4);
}

TEST(OpsForward, UpsampleBilinearDiffersFromNearest) {
  Rng rng(4);
  Tensor x = random_tensor({1, 3, 4, 4}, rng);
  Tape tn;
  Node* yn = upsample2x(tn, tn.input(x));
  Tape tb;
  tb.ctx.upsample = UpsampleMode::kBilinear;
  Node* yb = upsample2x(tb, tb.input(x));
  EXPECT_GT(max_abs_diff(yn->value, yb->value), 0.01f);
  // Bilinear interior midpoint check: out(1,1) blends 4 neighbours of the
  // top-left 2x2 block with weights .5625/.1875/.1875/.0625.
  const float e = 0.5625f * x.at4(0, 0, 0, 0) + 0.1875f * x.at4(0, 0, 0, 1) +
                  0.1875f * x.at4(0, 0, 1, 0) + 0.0625f * x.at4(0, 0, 1, 1);
  EXPECT_NEAR(yb->value.at4(0, 0, 1, 1), e, 1e-5f);
}

TEST(OpsForward, SoftmaxProbsRowsSumToOne) {
  Rng rng(5);
  Tensor logits = random_tensor({7, 11}, rng, -5.0f, 5.0f);
  Tensor p = softmax_probs(logits);
  for (int r = 0; r < 7; ++r) {
    double s = 0.0;
    for (int c = 0; c < 11; ++c) s += p.at2(r, c);
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(OpsForward, LogSoftmaxMatchesProbs) {
  Rng rng(6);
  Tensor logits = random_tensor({3, 5}, rng, -3.0f, 3.0f);
  Tensor p = softmax_probs(logits);
  Tensor lp = log_softmax_rows(logits);
  for (std::size_t i = 0; i < p.size(); ++i)
    EXPECT_NEAR(std::exp(lp[i]), p[i], 1e-5f);
}

TEST(OpsForward, BatchNormNormalizesBatchStats) {
  Rng rng(7);
  Tape t;
  t.training = true;
  Tensor x = random_tensor({4, 3, 5, 5}, rng, -4.0f, 2.0f);
  BatchNorm2d bn(3);
  Node* y = bn(t, t.input(x), BnMode::kTrain);
  // Output per channel: mean ~0, var ~1.
  for (int c = 0; c < 3; ++c) {
    double s = 0.0, s2 = 0.0;
    for (int n = 0; n < 4; ++n)
      for (int i = 0; i < 25; ++i) {
        const float v = y->value.at4(n, c, i / 5, i % 5);
        s += v;
        s2 += v * v;
      }
    const double mean = s / 100.0, var = s2 / 100.0 - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
  // Running stats moved toward batch stats.
  EXPECT_NE(bn.running_mean[0], 0.0f);
}

// ---------------------------------------------------------------------------
// Gradient checks: every op against finite differences
// ---------------------------------------------------------------------------

struct GradCheck {
  // Builds the graph, returns loss node; x is the input leaf.
  static void run(std::vector<int> x_shape,
                  const std::function<Node*(Tape&, Node*)>& graph, float tol = 2e-2f,
                  std::uint64_t seed = 11) {
    Rng rng(seed);
    Tensor x = random_tensor(std::move(x_shape), rng, -1.0f, 1.0f);
    Tape t;
    t.training = true;
    Node* xn = t.input(x, /*requires_grad=*/true);
    Node* loss = graph(t, xn);
    ASSERT_EQ(loss->value.size(), 1u);
    t.backward(loss);

    auto eval = [&]() {
      Tape t2;
      t2.training = true;
      Node* x2 = t2.input(x, false);
      return graph(t2, x2)->value[0];
    };
    // Spot-check a handful of positions.
    Rng pick(seed + 1);
    for (int trial = 0; trial < 8; ++trial) {
      const auto idx =
          static_cast<std::size_t>(pick.uniform_int(static_cast<int>(x.size())));
      const float num = numeric_grad(x, idx, eval);
      const float ana = xn->grad[idx];
      EXPECT_NEAR(ana, num, tol * std::max(1.0f, std::fabs(num)))
          << "idx=" << idx;
    }
  }
};

// Reduce any tensor node to a deterministic scalar for grad checking.
Node* to_scalar(Tape& t, Node* x) {
  Tensor target(x->value.shape());
  Rng rng(99);
  for (float& v : target.vec()) v = rng.uniform_f(-0.5f, 0.5f);
  return mse_loss(t, x, target);
}

TEST(GradCheckOps, Conv2d) {
  Rng wrng(21);
  auto w = std::make_shared<Param>(random_tensor({4, 3, 3, 3}, wrng, -0.4f, 0.4f));
  auto b = std::make_shared<Param>(random_tensor({4}, wrng, -0.1f, 0.1f));
  GradCheck::run({2, 3, 6, 6}, [w, b](Tape& t, Node* x) {
    return to_scalar(t, conv2d(t, x, *w, b.get(), {.stride = 2, .pad = 1, .groups = 1}, "c"));
  });
}

TEST(GradCheckOps, Conv2dWeightGrad) {
  Rng rng(22);
  Tensor x = random_tensor({1, 2, 5, 5}, rng);
  Param w(random_tensor({3, 2, 3, 3}, rng, -0.4f, 0.4f));
  Tensor target;
  auto eval = [&]() {
    Tape t;
    Node* y = conv2d(t, t.input(x), w, nullptr, {.stride = 1, .pad = 1, .groups = 1}, "c");
    if (target.empty()) {
      target = Tensor(y->value.shape());
      Rng tr(5);
      for (float& v : target.vec()) v = tr.uniform_f(-0.5f, 0.5f);
    }
    return mse_loss(t, y, target)->value[0];
  };
  eval();  // initialize target
  Tape t;
  t.training = true;
  Node* y = conv2d(t, t.input(x), w, nullptr, {.stride = 1, .pad = 1, .groups = 1}, "c");
  Node* loss = mse_loss(t, y, target);
  t.backward(loss);
  Rng pick(7);
  for (int trial = 0; trial < 8; ++trial) {
    const auto idx =
        static_cast<std::size_t>(pick.uniform_int(static_cast<int>(w.value.size())));
    const float num = numeric_grad(w.value, idx, eval);
    EXPECT_NEAR(w.grad[idx], num, 2e-2f * std::max(1.0f, std::fabs(num)));
  }
}

TEST(GradCheckOps, DepthwiseConv) {
  Rng wrng(23);
  auto w = std::make_shared<Param>(random_tensor({4, 1, 3, 3}, wrng, -0.4f, 0.4f));
  GradCheck::run({1, 4, 5, 5}, [w](Tape& t, Node* x) {
    return to_scalar(t, conv2d(t, x, *w, nullptr, {.stride = 1, .pad = 1, .groups = 4}, "dw"));
  });
}

TEST(GradCheckOps, Linear) {
  Rng wrng(24);
  auto w = std::make_shared<Param>(random_tensor({5, 7}, wrng, -0.4f, 0.4f));
  auto b = std::make_shared<Param>(random_tensor({5}, wrng, -0.1f, 0.1f));
  GradCheck::run({3, 7}, [w, b](Tape& t, Node* x) {
    return to_scalar(t, linear(t, x, *w, b.get(), "fc"));
  });
}

TEST(GradCheckOps, ReluGeluSigmoid) {
  GradCheck::run({2, 10}, [](Tape& t, Node* x) { return to_scalar(t, relu(t, x)); });
  GradCheck::run({2, 10}, [](Tape& t, Node* x) { return to_scalar(t, gelu(t, x)); });
  GradCheck::run({2, 10}, [](Tape& t, Node* x) { return to_scalar(t, sigmoid(t, x)); });
}

TEST(GradCheckOps, MaxPoolAndAvgPool) {
  GradCheck::run({1, 2, 6, 6}, [](Tape& t, Node* x) {
    return to_scalar(t, maxpool2d(t, x, 2, 2, 0));
  });
  GradCheck::run({1, 2, 6, 6}, [](Tape& t, Node* x) {
    return to_scalar(t, avgpool2d(t, x, 2, 2, 0));
  });
  GradCheck::run({1, 2, 6, 6}, [](Tape& t, Node* x) {
    return to_scalar(t, global_avgpool(t, x));
  });
}

TEST(GradCheckOps, UpsampleBothModes) {
  GradCheck::run({1, 2, 3, 3}, [](Tape& t, Node* x) {
    return to_scalar(t, upsample2x(t, x));
  });
  GradCheck::run({1, 2, 3, 3}, [](Tape& t, Node* x) {
    t.ctx.upsample = UpsampleMode::kBilinear;
    return to_scalar(t, upsample2x(t, x));
  });
}

TEST(GradCheckOps, BatchNormTrainMode) {
  auto bn = std::make_shared<BatchNorm2d>(3);
  GradCheck::run({4, 3, 4, 4}, [bn](Tape& t, Node* x) {
    // Fresh running stats per eval call would drift; use kAdapt (batch stats,
    // frozen running) so repeated evals are pure functions.
    return to_scalar(t, (*bn)(t, x, BnMode::kAdapt));
  }, 3e-2f);
}

TEST(GradCheckOps, LayerNorm) {
  auto ln = std::make_shared<LayerNorm>(8);
  GradCheck::run({3, 8}, [ln](Tape& t, Node* x) { return to_scalar(t, (*ln)(t, x)); });
}

TEST(GradCheckOps, AddScaleConcatReshape) {
  GradCheck::run({2, 3, 4, 4}, [](Tape& t, Node* x) {
    Node* a = scale(t, x, 1.7f);
    Node* b = add(t, x, a);
    Node* c = concat_channels(t, b, x);
    return to_scalar(t, flatten2d(t, c));
  });
}

TEST(GradCheckOps, SoftmaxCrossEntropy) {
  const std::vector<int> labels = {1, 0, 3};
  GradCheck::run({3, 4}, [labels](Tape& t, Node* x) {
    return softmax_cross_entropy(t, x, labels);
  });
}

TEST(GradCheckOps, SoftmaxEntropy) {
  GradCheck::run({3, 4}, [](Tape& t, Node* x) { return softmax_entropy(t, x); });
}

TEST(GradCheckOps, FocalAndSmoothL1) {
  Rng rng(31);
  auto targets = std::make_shared<Tensor>(Tensor({2, 6}));
  auto mask = std::make_shared<Tensor>(Tensor::full({2, 6}, 1.0f));
  for (float& v : targets->vec()) v = rng.bernoulli(0.3) ? 1.0f : 0.0f;
  GradCheck::run({2, 6}, [targets, mask](Tape& t, Node* x) {
    return sigmoid_focal_loss(t, x, *targets, *mask, 0.25f, 2.0f, 4.0f);
  });
  auto boxt = std::make_shared<Tensor>(random_tensor({2, 8}, rng, -2.0f, 2.0f));
  GradCheck::run({2, 8}, [boxt, mask2 = std::make_shared<Tensor>(Tensor::full({2, 8}, 1.0f))](
                             Tape& t, Node* x) {
    return smooth_l1_loss(t, x, *boxt, *mask2, 4.0f);
  });
}

TEST(GradCheckOps, AttentionCore) {
  Rng wrng(41);
  auto wq = std::make_shared<Param>(random_tensor({8, 8}, wrng, -0.4f, 0.4f));
  GradCheck::run({2, 5, 8}, [wq](Tape& t, Node* x) {
    Node* q = linear(t, x, *wq, nullptr, "q");
    Node* a = attention_core(t, q, x, x, 2, /*causal=*/false);
    return to_scalar(t, a);
  }, 3e-2f);
}

TEST(GradCheckOps, AttentionCausalMasking) {
  // Causal attention output at position 0 must not depend on later tokens.
  Rng rng(42);
  Tensor x = random_tensor({1, 4, 6}, rng);
  Tape t;
  Node* xn = t.input(x);
  Node* y = attention_core(t, xn, xn, xn, 2, /*causal=*/true);
  Tensor x2 = x;
  x2.at3(0, 3, 2) += 10.0f;  // change the last token
  Tape t2;
  Node* y2 = attention_core(t2, t2.input(x2), t2.input(x2), t2.input(x2), 2, true);
  for (int e = 0; e < 6; ++e) {
    EXPECT_FLOAT_EQ(y->value.at3(0, 0, e), y2->value.at3(0, 0, e));
  }
  // ...but position 3 does change.
  EXPECT_GT(std::fabs(y->value.at3(0, 3, 0) - y2->value.at3(0, 3, 0)), 1e-6f);
}

TEST(GradCheckOps, Embedding) {
  Rng rng(51);
  Param table(random_tensor({10, 4}, rng));
  const std::vector<int> ids = {1, 3, 3, 7, 0, 9};
  Tensor target = random_tensor({2, 3, 4}, rng);
  auto eval = [&]() {
    Tape t;
    Node* e = embedding(t, ids, 2, 3, table);
    return mse_loss(t, e, target)->value[0];
  };
  Tape t;
  Node* e = embedding(t, ids, 2, 3, table);
  Node* loss = mse_loss(t, e, target);
  t.backward(loss);
  // Token 3 appears twice: grads accumulate.
  for (int j = 0; j < 4; ++j) {
    const auto idx = static_cast<std::size_t>(3 * 4 + j);
    const float num = numeric_grad(table.value, idx, eval);
    EXPECT_NEAR(table.grad[idx], num, 1e-2f);
  }
  // Token 2 never appears: zero grad.
  for (int j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(table.grad[static_cast<std::size_t>(2 * 4 + j)], 0.0f);
}

TEST(AddPosEmbedding, AddsTheFirstSeqRowsOfALongerTable) {
  Rng rng(52);
  const Tensor x = random_tensor({2, 3, 4}, rng);
  Param pos(random_tensor({1, 5, 4}, rng));
  const Tensor target = random_tensor({2, 3, 4}, rng);
  Tape t;
  Node* y = add_pos_embedding(t, t.input(x, true), pos);
  ASSERT_EQ(y->value.shape(), x.shape());
  for (int b = 0; b < 2; ++b)
    for (int s = 0; s < 3; ++s)
      for (int d = 0; d < 4; ++d)
        EXPECT_EQ(y->value.at3(b, s, d), x.at3(b, s, d) + pos.value.at3(0, s, d));

  t.backward(mse_loss(t, y, target));
  auto eval = [&]() {
    Tape t2;
    return mse_loss(t2, add_pos_embedding(t2, t2.input(x), pos), target)->value[0];
  };
  for (int s = 0; s < 5; ++s)
    for (int d = 0; d < 4; ++d) {
      const auto idx = static_cast<std::size_t>(s * 4 + d);
      if (s < 3) {  // the rows the op read: the loss's gradient
        EXPECT_NE(pos.grad[idx], 0.0f);
        EXPECT_NEAR(pos.grad[idx], numeric_grad(pos.value, idx, eval), 1e-2f);
      } else {  // the rows past seq stay untouched
        EXPECT_EQ(pos.grad[idx], 0.0f);
      }
    }
}

TEST(AddPosEmbedding, TooShortOrWrongWidthTableThrows) {
  Rng rng(53);
  const Tensor x = random_tensor({2, 3, 4}, rng);
  Param short_pos(random_tensor({1, 2, 4}, rng));
  Param wide_pos(random_tensor({1, 3, 5}, rng));
  Tape t;
  Node* xn = t.input(x);
  EXPECT_THROW(add_pos_embedding(t, xn, short_pos), std::invalid_argument);
  EXPECT_THROW(add_pos_embedding(t, xn, wide_pos), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Precision hooks
// ---------------------------------------------------------------------------

TEST(PrecisionHooks, FP16ChangesConvOutputSlightly) {
  Rng rng(61);
  Tensor x = random_tensor({1, 3, 8, 8}, rng);
  Param w(random_tensor({4, 3, 3, 3}, rng, -0.3f, 0.3f));
  Tape t32;
  Node* y32 = conv2d(t32, t32.input(x), w, nullptr, {.stride = 1, .pad = 1, .groups = 1}, "c");
  Tape t16;
  t16.ctx.precision = Precision::kFP16;
  Node* y16 = conv2d(t16, t16.input(x), w, nullptr, {.stride = 1, .pad = 1, .groups = 1}, "c");
  const float d = max_abs_diff(y32->value, y16->value);
  EXPECT_GT(d, 0.0f);
  EXPECT_LT(d, 0.01f);  // FP16 noise is tiny (paper: ~0 ACC impact)
}

TEST(PrecisionHooks, INT8RequiresCalibrationAndIsCoarser) {
  Rng rng(62);
  Tensor x = random_tensor({1, 3, 8, 8}, rng);
  Param w(random_tensor({4, 3, 3, 3}, rng, -0.3f, 0.3f));
  const Conv2dSpec spec{.stride = 1, .pad = 1, .groups = 1};

  Tape t32;
  Node* y32 = conv2d(t32, t32.input(x), w, nullptr, spec, "c");

  ActRanges ranges;
  Tape tc;
  tc.ctx.calibrating = true;
  tc.ctx.ranges = &ranges;
  conv2d(tc, tc.input(x), w, nullptr, spec, "c");
  EXPECT_TRUE(ranges.count("c.in"));

  Tape t8;
  t8.ctx.precision = Precision::kINT8;
  t8.ctx.ranges = &ranges;
  Node* y8 = conv2d(t8, t8.input(x), w, nullptr, spec, "c");

  Tape t16;
  t16.ctx.precision = Precision::kFP16;
  Node* y16 = conv2d(t16, t16.input(x), w, nullptr, spec, "c");

  const float d8 = max_abs_diff(y32->value, y8->value);
  const float d16 = max_abs_diff(y32->value, y16->value);
  EXPECT_GT(d8, d16);  // INT8 noise dominates FP16 noise
  EXPECT_LT(d8, 0.5f);
}

// ---------------------------------------------------------------------------
// Optimizers, serialization, end-to-end learning
// ---------------------------------------------------------------------------

TEST(Optim, SgdConvergesOnQuadratic) {
  // Minimize ||x - c||^2 via Param updates.
  Param p(Tensor::full({4}, 5.0f));
  Tensor c = Tensor::from_vector({4}, {1.0f, -2.0f, 0.5f, 3.0f});
  Sgd opt({&p}, 0.1f, 0.9f);
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    for (int j = 0; j < 4; ++j)
      p.grad[static_cast<std::size_t>(j)] = 2.0f * (p.value[static_cast<std::size_t>(j)] - c[static_cast<std::size_t>(j)]);
    opt.step();
  }
  for (int j = 0; j < 4; ++j)
    EXPECT_NEAR(p.value[static_cast<std::size_t>(j)], c[static_cast<std::size_t>(j)], 1e-3f);
}

TEST(Optim, AdamConvergesOnQuadratic) {
  Param p(Tensor::full({4}, -3.0f));
  Tensor c = Tensor::from_vector({4}, {0.3f, 1.0f, -1.0f, 2.0f});
  Adam opt({&p}, 0.05f);
  for (int i = 0; i < 500; ++i) {
    opt.zero_grad();
    for (int j = 0; j < 4; ++j)
      p.grad[static_cast<std::size_t>(j)] = 2.0f * (p.value[static_cast<std::size_t>(j)] - c[static_cast<std::size_t>(j)]);
    opt.step();
  }
  for (int j = 0; j < 4; ++j)
    EXPECT_NEAR(p.value[static_cast<std::size_t>(j)], c[static_cast<std::size_t>(j)], 1e-2f);
}

TEST(Optim, CosineScheduleEndpoints) {
  EXPECT_FLOAT_EQ(cosine_lr(0.1f, 0, 100), 0.1f);
  EXPECT_NEAR(cosine_lr(0.1f, 100, 100), 0.0f, 1e-7f);
  EXPECT_NEAR(cosine_lr(0.1f, 50, 100), 0.05f, 1e-7f);
}

TEST(Optim, ClipGradNorm) {
  Param p(Tensor({4}));
  p.grad = Tensor::from_vector({4}, {3.0f, 4.0f, 0.0f, 0.0f});  // norm 5
  const float norm = clip_grad_norm({&p}, 1.0f);
  EXPECT_FLOAT_EQ(norm, 5.0f);
  EXPECT_NEAR(p.grad[0], 0.6f, 1e-5f);
  EXPECT_NEAR(p.grad[1], 0.8f, 1e-5f);
}

TEST(Serialize, RoundTripParamsAndRanges) {
  Rng rng(71);
  Param a(random_tensor({3, 4}, rng)), b(random_tensor({7}, rng));
  Tensor extra = random_tensor({5}, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "sysnoise_params.bin").string();
  save_params(path, {&a, &b}, {&extra});

  Param a2(Tensor({3, 4})), b2(Tensor({7}));
  Tensor extra2({5});
  ASSERT_TRUE(load_params(path, {&a2, &b2}, {&extra2}));
  EXPECT_FLOAT_EQ(max_abs_diff(a.value, a2.value), 0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(extra, extra2), 0.0f);

  ActRanges ranges;
  ranges["conv1.in"] = RangeObserver{-1.5f, 2.5f, true};
  const std::string rpath =
      (std::filesystem::temp_directory_path() / "sysnoise_ranges.bin").string();
  save_ranges(rpath, ranges);
  ActRanges back;
  ASSERT_TRUE(load_ranges(rpath, back));
  EXPECT_FLOAT_EQ(back["conv1.in"].lo, -1.5f);
  EXPECT_FLOAT_EQ(back["conv1.in"].hi, 2.5f);
  std::filesystem::remove(path);
  std::filesystem::remove(rpath);
}

TEST(Serialize, MissingFileReturnsFalse) {
  Param a(Tensor({2}));
  EXPECT_FALSE(load_params("/nonexistent/weights.bin", {&a}));
}

TEST(EndToEnd, TinyMlpLearnsXor) {
  Rng rng(81);
  Linear fc1(2, 8, rng, "fc1"), fc2(8, 2, rng, "fc2");
  ModuleRefs refs;
  refs.add(fc1, fc2);
  Sgd opt(refs.params, 0.2f, 0.9f);

  const std::vector<std::vector<float>> inputs = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<int> labels = {0, 1, 1, 0};
  Tensor x({4, 2});
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 2; ++j)
      x.at2(i, j) = inputs[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];

  float final_loss = 1e9f;
  for (int epoch = 0; epoch < 400; ++epoch) {
    Tape t;
    t.training = true;
    opt.zero_grad();
    Node* h = relu(t, fc1(t, t.input(x)));
    Node* logits = fc2(t, h);
    Node* loss = softmax_cross_entropy(t, logits, labels);
    t.backward(loss);
    opt.step();
    final_loss = loss->value[0];
  }
  EXPECT_LT(final_loss, 0.1f);

  // All four points classified correctly.
  Tape t;
  Node* logits = fc2(t, relu(t, fc1(t, t.input(x))));
  for (int i = 0; i < 4; ++i) {
    const int pred = logits->value.at2(i, 0) > logits->value.at2(i, 1) ? 0 : 1;
    EXPECT_EQ(pred, labels[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(EndToEnd, CeilModeChangesPredictionsNotCrashes) {
  // A conv+pool+fc classifier must run with either pooling mode (the
  // deployment flip) producing same-shape logits via global pooling.
  Rng rng(91);
  Conv2d conv(3, 8, 3, 1, 1, rng, "c1");
  Linear head(8, 4, rng, "head");
  Tensor x = random_tensor({2, 3, 16, 16}, rng);  // 16: floor->8, ceil->9

  auto run = [&](bool ceil) {
    Tape t;
    t.ctx.ceil_mode = ceil;
    Node* h = relu(t, conv(t, t.input(x)));
    Node* p = maxpool2d(t, h, 3, 2, 1);
    Node* g = global_avgpool(t, p);
    return head(t, g)->value;
  };
  Tensor floor_logits = run(false);
  Tensor ceil_logits = run(true);
  EXPECT_EQ(floor_logits.shape(), ceil_logits.shape());
  EXPECT_GT(max_abs_diff(floor_logits, ceil_logits), 1e-6f);  // the noise
}

// ---------------------------------------------------------------------------
// Lazy grads: an eval forward allocates none, backward allocates them
// ---------------------------------------------------------------------------

TEST(LazyGrads, EvalForwardLeavesEveryGradEmptyAndBackwardAllocatesThem) {
  // One model per op family the zoo uses: depthwise convs, residual
  // conv/bn/pool, attention + layernorm, windowed attention.
  for (const char* name : {"MCUNet", "ResNet-XS", "ViT-T", "Swin-T"}) {
    Rng rng(17);
    auto model = models::make_classifier(name, 10, rng);
    const Tensor x = random_tensor({2, 3, 32, 32}, rng);
    Tape t;
    Node* logits = model->forward(t, t.input(x), BnMode::kEval);
    ASSERT_GT(t.num_nodes(), 2u) << name;
    for (std::size_t i = 0; i < t.num_nodes(); ++i)
      EXPECT_TRUE(t.node(i).grad.empty()) << name << " node " << i;

    // TENT-style: backward on an eval tape still gives every requires_grad
    // node a grad shaped like its value; the input gets none.
    Node* loss = softmax_cross_entropy(t, logits, {1, 2});
    t.backward(loss);
    EXPECT_TRUE(t.node(0).grad.empty()) << name;
    for (std::size_t i = 0; i < t.num_nodes(); ++i)
      if (t.node(i).requires_grad)
        EXPECT_EQ(t.node(i).grad.shape(), t.node(i).value.shape())
            << name << " node " << i;
  }
}

// ---------------------------------------------------------------------------
// Weight cache: FP16/INT8 weights converted once per Param
// ---------------------------------------------------------------------------

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Random weights plus every conversion edge: +-0, float and FP16
// subnormals, FP16 round-half-even ties (1 + 2^-11 rounds down to 1,
// 1 + 3 * 2^-11 up to 1 + 2^-9), and one max-magnitude element that sets
// the INT8 scale.
Tensor edge_weights(std::vector<int> shape, Rng& rng) {
  Tensor w = random_tensor(std::move(shape), rng, -0.5f, 0.5f);
  const float edges[] = {0.0f,   -0.0f,  1e-40f, -1e-40f, 3e-6f,
                         -4e-7f, 1.0f + 0x1p-11f, -(1.0f + 0x1p-11f),
                         1.0f + 3 * 0x1p-11f, 0.25f + 0x1p-13f, -2.5f};
  const std::size_t stride = w.size() / std::size(edges);
  for (std::size_t i = 0; i < std::size(edges); ++i) w[i * stride] = edges[i];
  return w;
}

using WeightOp = std::function<Node*(Tape&, Node*, Param&)>;

Tensor forward_op(const WeightOp& op, const InferenceCtx& ctx, const Tensor& x,
                  Param& w) {
  Tape t;
  t.ctx = ctx;
  return op(t, t.input(x), w)->value;
}

// The uncached oracle: `op` under FP32 on the ctx's precision view of the
// input and apply_weight_precision's view of the weights, converted here.
Tensor uncached_forward(const WeightOp& op, const InferenceCtx& ctx,
                        const Tensor& x, const Tensor& w,
                        const std::string& layer_id) {
  Tensor xq = x;
  apply_activation_precision(ctx, layer_id + ".in", xq);
  Param wq(apply_weight_precision(ctx, w));
  InferenceCtx fp32;
  fp32.backend = ctx.backend;
  return forward_op(op, fp32, xq, wq);
}

InferenceCtx precision_ctx(Precision p, ActRanges* ranges) {
  InferenceCtx ctx;
  ctx.precision = p;
  ctx.ranges = ranges;
  return ctx;
}

constexpr Precision kDeployed[] = {Precision::kFP16, Precision::kINT8};

TEST(WeightCache, ConvAndLinearMatchUncachedConversionByteForByte) {
  Rng rng(101);
  Param conv_w(edge_weights({4, 3, 3, 3}, rng)), conv_b(random_tensor({4}, rng));
  Param lin_w(edge_weights({6, 12}, rng)), lin_b(random_tensor({6}, rng));
  const Tensor img = random_tensor({2, 3, 6, 6}, rng);
  const Tensor feats = random_tensor({3, 12}, rng);
  const WeightOp conv = [&](Tape& t, Node* x, Param& w) {
    return conv2d(t, x, w, &conv_b, {.stride = 1, .pad = 1, .groups = 1}, "c");
  };
  const WeightOp lin = [&](Tape& t, Node* x, Param& w) {
    return linear(t, x, w, &lin_b, "l");
  };
  ActRanges ranges;
  InferenceCtx calib;
  calib.calibrating = true;
  calib.ranges = &ranges;
  forward_op(conv, calib, img, conv_w);
  forward_op(lin, calib, feats, lin_w);
  ASSERT_TRUE(ranges.count("c.in") && ranges.count("l.in"));

  // FP32 and calibration read the value itself.
  EXPECT_EQ(conv_w.deployed(InferenceCtx{}).get(), &conv_w.value);
  EXPECT_EQ(conv_w.deployed(calib).get(), &conv_w.value);

  for (const Precision p : kDeployed) {
    const InferenceCtx ctx = precision_ctx(p, &ranges);
    const Tensor conv_ref = uncached_forward(conv, ctx, img, conv_w.value, "c");
    const Tensor lin_ref = uncached_forward(lin, ctx, feats, lin_w.value, "l");
    EXPECT_FALSE(bytes_equal(conv_ref, forward_op(conv, InferenceCtx{}, img, conv_w)));
    for (int call = 0; call < 3; ++call) {  // call 0 converts, later calls hit
      EXPECT_TRUE(bytes_equal(forward_op(conv, ctx, img, conv_w), conv_ref))
          << precision_name(p) << " call " << call;
      EXPECT_TRUE(bytes_equal(forward_op(lin, ctx, feats, lin_w), lin_ref))
          << precision_name(p) << " call " << call;
      EXPECT_TRUE(bytes_equal(*lin_w.deployed(ctx), apply_weight_precision(ctx, lin_w.value)));
    }
    // Copied, moved and assigned Params forward their own value.
    Param copied = lin_w;
    Param moved = std::move(copied);
    EXPECT_TRUE(bytes_equal(forward_op(lin, ctx, feats, moved), lin_ref));
    Param assigned(Tensor({6, 12}));
    forward_op(lin, ctx, feats, assigned);
    assigned = lin_w;
    EXPECT_TRUE(bytes_equal(forward_op(lin, ctx, feats, assigned), lin_ref));
  }
}

TEST(WeightCache, EveryWriterOfValueIsSeenByTheNextForward) {
  Rng rng(102);
  Param w(edge_weights({6, 12}, rng));
  const Tensor x = random_tensor({3, 12}, rng);
  const WeightOp lin = [](Tape& t, Node* xn, Param& p) {
    return linear(t, xn, p, nullptr, "l");
  };
  ActRanges ranges;
  InferenceCtx calib;
  calib.calibrating = true;
  calib.ranges = &ranges;
  forward_op(lin, calib, x, w);

  // Each check runs right after a mutation, with the cache warm from the
  // previous check, and repeats so the second forward reads the new entry.
  auto check = [&](const char* what) {
    for (const Precision p : kDeployed) {
      const InferenceCtx ctx = precision_ctx(p, &ranges);
      const Tensor ref = uncached_forward(lin, ctx, x, w.value, "l");
      for (int call = 0; call < 2; ++call)
        EXPECT_TRUE(bytes_equal(forward_op(lin, ctx, x, w), ref))
            << what << " " << precision_name(p) << " call " << call;
    }
  };
  check("initial");
  const float* const buffer = w.value.data();
  Tensor before = w.value;

  {
    Sgd opt({&w}, 0.1f);
    w.grad = random_tensor(w.value.shape(), rng);
    opt.step();
  }
  EXPECT_FALSE(bytes_equal(w.value, before));
  check("Sgd::step");

  before = w.value;
  {
    Adam opt({&w}, 0.01f);
    w.grad = random_tensor(w.value.shape(), rng);
    opt.step();
  }
  EXPECT_FALSE(bytes_equal(w.value, before));
  check("Adam::step");

  const std::string path =
      (std::filesystem::temp_directory_path() / "sysnoise_weight_cache.bin").string();
  Param other(random_tensor(w.value.shape(), rng));
  save_params(path, {&other});
  ASSERT_TRUE(load_params(path, {&w}));
  std::filesystem::remove(path);
  EXPECT_TRUE(bytes_equal(w.value, other.value));
  check("load_params");

  // In-place rewrite: same buffer address, new bytes. Optimizers also write
  // in place, so a cache keyed by address would serve every check above
  // stale.
  for (float& v : w.value.vec()) v = -v;
  ASSERT_EQ(w.value.data(), buffer);
  check("value.vec() write");
}

TEST(WeightCache, TentAdaptationIsSeenOnFp16AndInt8) {
  data::ClsDatasetSpec spec;
  spec.train_per_class = 0;
  spec.eval_per_class = 1;
  const data::ClsDataset ds = data::make_classification_dataset(spec);
  Rng xrng(103);
  const Tensor x = random_tensor({2, 3, 32, 32}, xrng);
  for (const Precision p : kDeployed) {
    Rng rng(104);
    auto model = models::make_classifier("ResNet-XS", ds.num_classes, rng);
    ActRanges ranges;
    {
      Tape t;
      t.ctx.calibrating = true;
      t.ctx.ranges = &ranges;
      model->forward(t, t.input(x), BnMode::kEval);
    }
    SysNoiseConfig cfg;
    cfg.precision = p;
    const InferenceCtx ctx = cfg.inference_ctx(&ranges);
    auto run = [&](models::Classifier& m) {
      Tape t;
      t.ctx = ctx;
      return m.forward(t, t.input(x), BnMode::kEval)->value;
    };
    const Tensor before = run(*model);  // warms every weight's cache
    core::eval_classifier_tent(*model, ds.eval, cfg, models::cls_pipeline_spec(),
                               &ranges, 5e-2f, 4);

    // A twin holding the adapted parameters in fresh Params converts anew.
    Rng twin_rng(105);
    auto twin = models::make_classifier("ResNet-XS", ds.num_classes, twin_rng);
    ParamRefs adapted, copies;
    model->collect(adapted);
    twin->collect(copies);
    StateRefs state, twin_state;
    model->collect_state(state);
    twin->collect_state(twin_state);
    ASSERT_EQ(adapted.size(), copies.size());
    for (std::size_t i = 0; i < adapted.size(); ++i) copies[i]->value = adapted[i]->value;
    for (std::size_t i = 0; i < state.size(); ++i) *twin_state[i] = *state[i];

    const Tensor after = run(*model);
    EXPECT_FALSE(bytes_equal(after, before)) << precision_name(p);
    EXPECT_TRUE(bytes_equal(after, run(*twin))) << precision_name(p);
  }
}

TEST(WeightCache, ConcurrentForwardsOfSharedModelsMatchSerial) {
  // The shared models start with cold caches, so the threads race to fill
  // them; identically seeded twins give the serial reference.
  Rng cls_rng(106), cls_twin_rng(106);
  auto cls = models::make_classifier("ResNet-XS", 10, cls_rng);
  auto cls_twin = models::make_classifier("ResNet-XS", 10, cls_twin_rng);
  Rng lm_rng(107), lm_twin_rng(107);
  const nlp::LmSpec lm_spec = nlp::opt_mini_zoo()[0];
  nlp::CausalLm lm(lm_spec, nlp::kVocab, lm_rng);
  nlp::CausalLm lm_twin(lm_spec, nlp::kVocab, lm_twin_rng);
  Rng rng(108);
  const Tensor img = random_tensor({2, 3, 32, 32}, rng);
  const std::vector<int> ids = {1, 2, nlp::kTokArrow, 3, 4, 5, 6, 7};
  const int seq = static_cast<int>(ids.size());

  ActRanges cls_ranges, lm_ranges;
  {
    Tape t;
    t.ctx.calibrating = true;
    t.ctx.ranges = &cls_ranges;
    cls_twin->forward(t, t.input(img), BnMode::kEval);
    Tape tl;
    tl.ctx.calibrating = true;
    tl.ctx.ranges = &lm_ranges;
    lm_twin.forward(tl, ids, 1, seq);
  }
  auto run_cls = [&](models::Classifier& m, Precision p) {
    Tape t;
    t.ctx = precision_ctx(p, &cls_ranges);
    return m.forward(t, t.input(img), BnMode::kEval)->value;
  };
  auto run_lm = [&](nlp::CausalLm& m, Precision p) {
    Tape t;
    t.ctx = precision_ctx(p, &lm_ranges);
    return m.forward(t, ids, 1, seq)->value;
  };
  Tensor cls_ref[kNumPrecisions], lm_ref[kNumPrecisions];
  for (const Precision p : kDeployed) {
    cls_ref[static_cast<int>(p)] = run_cls(*cls_twin, p);
    lm_ref[static_cast<int>(p)] = run_lm(lm_twin, p);
  }

  constexpr int kThreads = 4, kRounds = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int ti = 0; ti < kThreads; ++ti)
    threads.emplace_back([&, ti] {
      for (int r = 0; r < kRounds; ++r)
        for (int j = 0; j < 2; ++j) {
          const Precision p = kDeployed[(ti + r + j) % 2];
          const int pi = static_cast<int>(p);
          if (!bytes_equal(run_cls(*cls, p), cls_ref[pi])) ++mismatches;
          if (!bytes_equal(run_lm(lm, p), lm_ref[pi])) ++mismatches;
        }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(WeightCache, TracedCountersRecordOneConversionPerParamAndPrecision) {
  Rng rng(109);
  Param conv_w(random_tensor({4, 3, 3, 3}, rng)), lin_w(random_tensor({5, 8}, rng));
  const Tensor img = random_tensor({1, 3, 6, 6}, rng);
  const Tensor feats = random_tensor({2, 8}, rng);
  const WeightOp conv = [](Tape& t, Node* x, Param& w) {
    return conv2d(t, x, w, nullptr, {.stride = 1, .pad = 1, .groups = 1}, "c");
  };
  const WeightOp lin = [](Tape& t, Node* x, Param& w) {
    return linear(t, x, w, nullptr, "l");
  };
  constexpr int kCalls = 5;
  auto forwards = [&] {
    for (const Precision p : {Precision::kFP32, Precision::kFP16, Precision::kINT8})
      for (int i = 0; i < kCalls; ++i) {
        forward_op(conv, precision_ctx(p, nullptr), img, conv_w);
        forward_op(lin, precision_ctx(p, nullptr), feats, lin_w);
      }
  };

  // Untraced forwards, converting or hitting, record nothing. They run on
  // copies so the traced pass below starts with cold caches.
  obs::metrics().reset();
  Param conv_copy = conv_w, lin_copy = lin_w;
  for (int i = 0; i < 2; ++i) {
    forward_op(conv, precision_ctx(Precision::kFP16, nullptr), img, conv_copy);
    forward_op(lin, precision_ctx(Precision::kINT8, nullptr), feats, lin_copy);
  }
  EXPECT_EQ(obs::metrics().counter_value("nn.weight_cache.conversions"), 0u);
  EXPECT_EQ(obs::metrics().counter_value("nn.weight_cache.hits"), 0u);

  // Two params x two converting precisions; FP32 never touches the cache.
  obs::trace_enable();
  forwards();
  obs::trace_disable();
  obs::trace_reset();
  EXPECT_EQ(obs::metrics().counter_value("nn.weight_cache.conversions"), 4u);
  EXPECT_EQ(obs::metrics().counter_value("nn.weight_cache.hits"), 4u * (kCalls - 1));
  obs::metrics().reset();
}

}  // namespace
}  // namespace sysnoise::nn
