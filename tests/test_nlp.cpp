#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/axis.h"
#include "core/plan.h"
#include "data/noise_config.h"
#include "nlp/eval_task.h"
#include "nlp/lm.h"
#include "nlp/tasks.h"
#include "nn/ops.h"

namespace sysnoise::nlp {
namespace {

TEST(Tasks, CorpusDeterministicAndWellFormed) {
  const auto a = make_lm_corpus(20, 5);
  const auto b = make_lm_corpus(20, 5);
  ASSERT_EQ(a.size(), 20u);
  EXPECT_EQ(a[3], b[3]);
  for (const auto& seq : a) {
    EXPECT_EQ(seq.size(), 24u);
    for (int tok : seq) {
      EXPECT_GE(tok, 0);
      EXPECT_LT(tok, kVocab);
    }
  }
}

TEST(Tasks, ItemsHaveDistinctOptions) {
  for (int k = 0; k < kNumTasks; ++k) {
    const auto items = make_task_items(static_cast<TaskKind>(k), 50, 7);
    ASSERT_EQ(items.size(), 50u);
    for (const auto& item : items) {
      EXPECT_FALSE(item.context.empty());
      ASSERT_EQ(item.correct.size(), 1u);
      ASSERT_EQ(item.wrong.size(), 1u);
      EXPECT_NE(item.correct[0], item.wrong[0]);
    }
  }
}

TEST(Tasks, PiqaRuleIsConsistent) {
  // The functional rule f(a,b) must match between corpus and task items:
  // items with identical (a, b) context share the same correct answer.
  const auto items1 = make_task_items(TaskKind::kPiqa, 200, 1);
  const auto items2 = make_task_items(TaskKind::kPiqa, 200, 2);
  for (const auto& x : items1)
    for (const auto& y : items2)
      if (x.context == y.context) EXPECT_EQ(x.correct[0], y.correct[0]);
}

TEST(Tasks, NamesAreStable) {
  EXPECT_STREQ(task_name(TaskKind::kPiqa), "PIQA-like");
  EXPECT_STREQ(task_name(TaskKind::kWinoGrande), "WinoGrande-like");
}

TEST(Lm, ForwardShape) {
  Rng rng(3);
  CausalLm lm(opt_mini_zoo()[0], kVocab, rng);
  const std::vector<int> ids = {1, 2, 3, 4, 5, 6};
  nn::Tape t;
  nn::Node* logits = lm.forward(t, ids, 2, 3);
  EXPECT_EQ(logits->value.shape(), (std::vector<int>{2, 3, kVocab}));
}

TEST(Lm, CausalityHolds) {
  // Changing a later token must not change earlier logits.
  Rng rng(4);
  CausalLm lm(opt_mini_zoo()[0], kVocab, rng);
  std::vector<int> a = {1, 2, 3, 4};
  std::vector<int> b = {1, 2, 3, 9};
  nn::Tape ta, tb;
  nn::Node* la = lm.forward(ta, a, 1, 4);
  nn::Node* lb = lm.forward(tb, b, 1, 4);
  for (int p = 0; p < 3; ++p)
    for (int v = 0; v < kVocab; ++v)
      EXPECT_FLOAT_EQ(la->value.at3(0, p, v), lb->value.at3(0, p, v)) << p;
}

TEST(Lm, TrainingReducesLossAndLearnsRecall) {
  Rng rng(5);
  CausalLm lm(opt_mini_zoo()[0], kVocab, rng);
  const auto corpus = make_lm_corpus(240, 11);
  const float first = train_lm(lm, corpus, 1, 2e-3f);
  const float later = train_lm(lm, corpus, 9, 2e-3f);
  EXPECT_LT(later, first);

  // After training, the LAMBADA-like recall task should be above chance.
  const auto items = make_task_items(TaskKind::kLambada, 60, 21);
  const nn::InferenceCtx fp32;
  int correct = 0;
  for (const auto& item : items) {
    const double sc = lm.score_continuation(item.context, item.correct, fp32);
    const double sw = lm.score_continuation(item.context, item.wrong, fp32);
    correct += sc > sw;
  }
  EXPECT_GT(correct, 36) << "recall task should beat 50% chance on 60 items";
}

TEST(Lm, PrecisionPerturbsScoresSlightly) {
  Rng rng(6);
  CausalLm lm(opt_mini_zoo()[0], kVocab, rng);
  const auto corpus = make_lm_corpus(80, 13);
  train_lm(lm, corpus, 2, 2e-3f);
  nn::ActRanges ranges;
  calibrate_lm(lm, corpus, ranges);

  const std::vector<int> ctx = {1, 2, kTokArrow};
  const std::vector<int> cont = {3};
  const auto score = [&](nn::Precision precision) {
    nn::InferenceCtx ictx;
    ictx.precision = precision;
    ictx.ranges = &ranges;
    return lm.score_continuation(ctx, cont, ictx);
  };
  const double s32 = score(nn::Precision::kFP32);
  const double s16 = score(nn::Precision::kFP16);
  const double s8 = score(nn::Precision::kINT8);
  EXPECT_NE(s32, s16);
  EXPECT_NE(s32, s8);
  EXPECT_LT(std::abs(s32 - s16), std::abs(s32 - s8) + 1.0);  // INT8 noisier
  EXPECT_LT(std::abs(s32 - s8), 5.0);  // but not catastrophic
}

// The two-forward score_continuation the one-forward scoring replaced,
// verbatim (as a free function): the oracle every score must equal bit for
// bit.
double seed_score_continuation(CausalLm& lm, const std::vector<int>& context,
                               const std::vector<int>& continuation,
                               const nn::InferenceCtx& ctx) {
  std::vector<int> ids = context;
  ids.insert(ids.end(), continuation.begin(), continuation.end());
  const int seq = static_cast<int>(ids.size());
  nn::Tape t;
  t.ctx = ctx;
  nn::Node* logits = lm.forward(t, ids, 1, seq);
  const Tensor lp = nn::log_softmax_rows(logits->value.reshaped({seq, lm.vocab()}));
  double score = 0.0;
  const int ctx_len = static_cast<int>(context.size());
  for (std::size_t k = 0; k < continuation.size(); ++k) {
    const int pos = ctx_len + static_cast<int>(k) - 1;  // token predicting cont[k]
    score += lp.at2(pos, continuation[k]);
  }
  return score;
}

// An OPT-mini trained briefly: the identities under test hold for any
// weights, but trained ones give the INT8 ranges real content.
TrainedLm& test_lm() {
  static TrainedLm tlm = [] {
    TrainedLm out;
    out.name = "OPT-125M-mini";
    const auto corpus = make_lm_corpus(80, 13);
    Rng rng(6);
    out.lm = std::make_unique<CausalLm>(opt_mini_zoo()[0], kVocab, rng);
    train_lm(*out.lm, corpus, /*epochs=*/2, 2e-3f);
    calibrate_lm(*out.lm, corpus, out.ranges);
    return out;
  }();
  return tlm;
}

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

TEST(Nlp, ScoreChoicesIsBitIdenticalToTwoFullForwards) {
  TrainedLm& tlm = test_lm();
  CausalLm& lm = *tlm.lm;
  // Multi-token continuations: {x, y} vs {x, z} feed the same ids (one
  // shared forward); {x, y} vs {w, y} and {x} vs {x, y} feed different ids
  // (one forward each).
  const std::vector<std::vector<int>> multi = {
      {3, 5}, {3, 9}, {7, 5}, {3}, {3, 5, kTokSep}, {kTokEq, 1, 2}};
  for (int kind = 0; kind < kNumTasks; ++kind) {
    const NlpChoiceTask task(tlm, static_cast<TaskKind>(kind));
    const auto items = make_task_items(
        static_cast<TaskKind>(kind), 120,
        9000 + static_cast<std::uint64_t>(kind));  // NlpChoiceTask's items
    const core::SweepPlan plan =
        core::plan_sweep(task, core::AxisRegistry::global());
    ASSERT_FALSE(plan.configs.empty());
    for (const core::PlannedConfig& pc : plan.configs) {
      const int limit = tokenizer_profile_symbol_limit(pc.cfg.tokenizer);
      const nn::InferenceCtx ctx = pc.cfg.inference_ctx(&tlm.ranges);
      int mismatches = 0;
      for (const ChoiceItem& raw : items) {
        const ChoiceItem item = retokenize(raw, limit);
        const auto [sc, sw] =
            lm.score_choices(item.context, item.correct, item.wrong, ctx);
        mismatches += !same_bits(sc, seed_score_continuation(
                                         lm, item.context, item.correct, ctx));
        mismatches += !same_bits(sw, seed_score_continuation(
                                         lm, item.context, item.wrong, ctx));
        mismatches += !same_bits(
            lm.score_continuation(item.context, item.correct, ctx), sc);
      }
      for (const auto& a : multi)
        for (const auto& b : multi) {
          const auto [sa, sb] = lm.score_choices(items[0].context, a, b, ctx);
          mismatches += !same_bits(
              sa, seed_score_continuation(lm, items[0].context, a, ctx));
          mismatches += !same_bits(
              sb, seed_score_continuation(lm, items[0].context, b, ctx));
        }
      EXPECT_EQ(mismatches, 0) << task.name() << " " << pc.cfg.describe();
    }
  }
}

TEST(Nlp, OutOfRangeTokenIdsAndEmptyInputsThrow) {
  Rng rng(8);
  CausalLm lm(opt_mini_zoo()[0], kVocab, rng);
  const nn::InferenceCtx ctx;
  const std::vector<int> context = {1, 2, kTokArrow};
  const std::vector<int> ok = {3};
  for (const int bad : {-1, kVocab, kVocab + 7}) {
    // Fed to the embedding (context, or a continuation's leading token).
    nn::Tape t;
    EXPECT_THROW(lm.forward(t, {1, bad, 2}, 1, 3), std::invalid_argument);
    EXPECT_THROW(lm.score_choices({1, bad}, ok, ok, ctx),
                 std::invalid_argument);
    EXPECT_THROW(lm.score_choices(context, {bad, 3}, ok, ctx),
                 std::invalid_argument);
    // A continuation's last token is never fed, only read from the
    // log-probs row.
    EXPECT_THROW(lm.score_choices(context, ok, {bad}, ctx),
                 std::invalid_argument);
    EXPECT_THROW(lm.score_continuation(context, {3, bad}, ctx),
                 std::invalid_argument);
  }
  EXPECT_THROW(lm.score_choices({}, ok, ok, ctx), std::invalid_argument);
  EXPECT_THROW(lm.score_continuation({}, ok, ctx), std::invalid_argument);
  EXPECT_THROW(lm.score_choices(context, {}, ok, ctx), std::invalid_argument);
  EXPECT_THROW(lm.score_choices(context, ok, {}, ctx), std::invalid_argument);
  EXPECT_NO_THROW(lm.score_choices(context, ok, {kVocab - 1}, ctx));
}

TEST(NnEmbedding, IdOutsideTheTableThrows) {
  Rng rng(2);
  nn::Param table(Tensor({5, 3}));
  for (float& v : table.value.vec()) v = rng.uniform_f(-1.0f, 1.0f);
  for (const int bad : {-1, 5, 1 << 20}) {
    nn::Tape t;
    EXPECT_THROW(nn::embedding(t, {0, bad}, 1, 2, table),
                 std::invalid_argument)
        << bad;
  }
  nn::Tape t;
  const nn::Node* y = nn::embedding(t, {4, 0}, 1, 2, table);
  EXPECT_EQ(y->value.at3(0, 0, 2), table.value.at2(4, 2));
}

}  // namespace
}  // namespace sysnoise::nlp
