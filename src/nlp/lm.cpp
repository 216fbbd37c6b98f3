#include "nlp/lm.h"

#include <cmath>
#include <stdexcept>

#include "nn/ops_extra.h"
#include "nn/optim.h"

namespace sysnoise::nlp {

using namespace sysnoise::nn;

std::vector<LmSpec> opt_mini_zoo() {
  return {
      {"OPT-125M-mini", 24, 2, 2, 64},
      {"OPT-350M-mini", 32, 2, 4, 64},
      {"OPT-1.3B-mini", 48, 3, 4, 64},
  };
}

CausalLm::CausalLm(const LmSpec& spec, int vocab, Rng& rng)
    : spec_(spec),
      vocab_(vocab),
      embed_(vocab, spec.dim, rng),
      pos_(Tensor({1, spec.max_seq, spec.dim})),
      final_ln_(spec.dim),
      head_(spec.dim, vocab, rng, spec.name + ".head") {
  for (float& v : pos_.value.vec()) v = rng.normal_f(0.0f, 0.02f);
  for (int i = 0; i < spec.layers; ++i)
    blocks_.emplace_back(spec.dim, spec.heads, 4, /*causal=*/true, rng,
                         spec.name + ".b" + std::to_string(i));
}

Node* CausalLm::forward(Tape& t, const std::vector<int>& ids, int batch, int seq) {
  Node* x = add_pos_embedding(t, embed_(t, ids, batch, seq), pos_);
  for (auto& b : blocks_) x = b(t, x);
  x = final_ln_(t, x);
  return head_(t, x);  // [batch, seq, vocab]
}

void CausalLm::walk(ModuleRefs& refs) {
  refs.add(embed_, pos_, blocks_, final_ln_, head_);
}

double CausalLm::score_continuation(const std::vector<int>& context,
                                    const std::vector<int>& continuation,
                                    const InferenceCtx& ctx) {
  return score_choices(context, continuation, continuation, ctx).first;
}

std::pair<double, double> CausalLm::score_choices(
    const std::vector<int>& context, const std::vector<int>& a,
    const std::vector<int>& b, const InferenceCtx& ctx) {
  if (context.empty())
    throw std::invalid_argument("score_choices: empty context");
  for (const std::vector<int>* cont : {&a, &b}) {
    if (cont->empty())
      throw std::invalid_argument("score_choices: empty continuation");
    for (const int id : *cont)
      if (id < 0 || id >= vocab_)
        throw std::invalid_argument("score_choices: token id " +
                                    std::to_string(id) + " outside [0, " +
                                    std::to_string(vocab_) + ")");
  }
  // Row p of the log-probs predicts token p + 1; the last fed row predicts
  // the continuation's last token.
  const auto fed = [&](const std::vector<int>& cont) {
    std::vector<int> ids = context;
    ids.insert(ids.end(), cont.begin(), cont.end() - 1);
    return ids;
  };
  const auto log_probs = [&](const std::vector<int>& ids) {
    const int seq = static_cast<int>(ids.size());
    Tape t;
    t.ctx = ctx;
    Node* logits = forward(t, ids, 1, seq);
    return log_softmax_rows(logits->value.reshaped({seq, vocab_}));
  };
  const auto score = [&](const Tensor& lp, const std::vector<int>& cont) {
    double sum = 0.0;
    const int ctx_len = static_cast<int>(context.size());
    for (std::size_t k = 0; k < cont.size(); ++k)
      sum += lp.at2(ctx_len + static_cast<int>(k) - 1, cont[k]);
    return sum;
  };
  const std::vector<int> fed_a = fed(a);
  const std::vector<int> fed_b = fed(b);
  const Tensor lp_a = log_probs(fed_a);
  if (fed_b == fed_a) return {score(lp_a, a), score(lp_a, b)};
  return {score(lp_a, a), score(log_probs(fed_b), b)};
}

float train_lm(CausalLm& lm, const std::vector<std::vector<int>>& corpus,
               int epochs, float lr, std::uint64_t seed) {
  ParamRefs params;
  lm.collect(params);
  Adam opt(params, lr);
  Rng rng(seed);
  const int n = static_cast<int>(corpus.size());
  const int bs = 8;
  float last = 0.0f;
  for (int e = 0; e < epochs; ++e) {
    const auto order = rng.permutation(n);
    for (int b = 0; b < n; b += bs) {
      // Group same-length sequences: corpus sequences share one length.
      const int cur = std::min(bs, n - b);
      const int seq = static_cast<int>(corpus[static_cast<std::size_t>(order[static_cast<std::size_t>(b)])].size());
      std::vector<int> ids;
      std::vector<int> targets;
      int rows = 0;
      for (int i = 0; i < cur; ++i) {
        const auto& s = corpus[static_cast<std::size_t>(order[static_cast<std::size_t>(b + i)])];
        if (static_cast<int>(s.size()) != seq) continue;  // skip ragged
        ids.insert(ids.end(), s.begin(), s.end());
        // Next-token targets; last position predicts a pad we exclude by
        // training on positions [0, seq-2].
        ++rows;
      }
      if (rows == 0) continue;
      Tape t;
      t.training = true;
      opt.zero_grad();
      Node* logits = lm.forward(t, ids, rows, seq);
      // Build shifted targets + mask out the final position of each row.
      std::vector<int> labels(static_cast<std::size_t>(rows) * seq, 0);
      std::vector<float> mask(static_cast<std::size_t>(rows) * seq, 0.0f);
      int live = 0;
      for (int r = 0; r < rows; ++r)
        for (int p = 0; p + 1 < seq; ++p) {
          labels[static_cast<std::size_t>(r) * seq + p] =
              ids[static_cast<std::size_t>(r) * seq + p + 1];
          mask[static_cast<std::size_t>(r) * seq + p] = 1.0f;
          ++live;
        }
      Node* rowsn = reshape(t, logits, {rows * seq, lm.vocab()});
      Node* loss = softmax_cross_entropy_masked(t, rowsn, labels, mask,
                                                static_cast<float>(live));
      t.backward(loss);
      clip_grad_norm(params, 5.0f);
      opt.step();
      last = loss->value[0];
    }
  }
  return last;
}

void calibrate_lm(CausalLm& lm, const std::vector<std::vector<int>>& corpus,
                  ActRanges& ranges, int max_items) {
  for (int i = 0; i < max_items && i < static_cast<int>(corpus.size()); ++i) {
    const auto& s = corpus[static_cast<std::size_t>(i)];
    Tape t;
    t.ctx.calibrating = true;
    t.ctx.ranges = &ranges;
    lm.forward(t, s, 1, static_cast<int>(s.size()));
  }
}

}  // namespace sysnoise::nlp
