// Causal transformer language models ("OPT-mini" family, Table 5) plus
// multiple-choice scoring. The data-precision SysNoise knob acts at every
// linear projection through the shared InferenceCtx.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "nn/layers.h"

namespace sysnoise::nlp {

struct LmSpec {
  std::string name;
  int dim = 32;
  int layers = 2;
  int heads = 2;
  int max_seq = 64;
};

// The Table 5 rows of this reproduction (scaled OPT family).
std::vector<LmSpec> opt_mini_zoo();

class CausalLm : public nn::Module {
 public:
  CausalLm(const LmSpec& spec, int vocab, Rng& rng);

  // ids: flat batch*seq tokens; returns logits [batch, seq, vocab].
  nn::Node* forward(nn::Tape& t, const std::vector<int>& ids, int batch, int seq);
  void walk(nn::ModuleRefs& refs) override;

  // Sum log p(continuation | context) under the inference knobs of `ctx`
  // (precision, backend, ...).
  double score_continuation(const std::vector<int>& context,
                            const std::vector<int>& continuation,
                            const nn::InferenceCtx& ctx);
  // {score_a, score_b}: sum log p(a | context) and sum log p(b | context).
  // A continuation's last token predicts nothing, so the forward is fed
  // context + cont[0..K-2] only; when a and b feed the same ids (every
  // single-token choice item), one forward serves both scores. Every op of
  // the forward is row-wise or causal, so each score is bit-identical to
  // a forward over context + the whole continuation. Throws
  // std::invalid_argument for an empty context or continuation, or a token
  // id outside [0, vocab).
  std::pair<double, double> score_choices(const std::vector<int>& context,
                                          const std::vector<int>& a,
                                          const std::vector<int>& b,
                                          const nn::InferenceCtx& ctx);

  int vocab() const { return vocab_; }
  const LmSpec& spec() const { return spec_; }

 private:
  LmSpec spec_;
  int vocab_;
  nn::Embedding embed_;
  nn::Param pos_;
  std::vector<nn::TransformerBlock> blocks_;
  nn::LayerNorm final_ln_;
  nn::Linear head_;
};

// Next-token cross-entropy training on a corpus of token sequences.
float train_lm(CausalLm& lm, const std::vector<std::vector<int>>& corpus,
               int epochs, float lr, std::uint64_t seed = 5);

void calibrate_lm(CausalLm& lm, const std::vector<std::vector<int>>& corpus,
                  nn::ActRanges& ranges, int max_items = 8);

}  // namespace sysnoise::nlp
