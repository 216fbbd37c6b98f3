// Differentiable operations recorded on a Tape.
//
// Convention: every op appends exactly one Node whose backprop closure
// accumulates into the grads of its inputs (and of any Param it uses).
// Layer-identity strings feed the INT8 calibration/quantization hooks.
//
// Per-sample forward contract: in eval mode (BnMode::kEval, no
// calibration), every op's output for batch item n depends ONLY on input
// item n — batchnorm uses running stats, pooling/conv/linear/upsample are
// per-sample loops or per-row GEMMs with a fixed accumulation order, and
// the precision hooks quantize elementwise against calibrated ranges.
// Serving micro-batching relies on this: a request's prediction must not
// depend on which other requests share its batch, so served accuracy
// equals the offline metric bit-exactly (ServeAccuracy tests). So does a
// staged task that opts into cross-config stacking
// (core::StagedEvalTask::forward_batch_key). Any new op that mixes
// information across the batch dimension in eval mode breaks that contract
// and must not be reachable from model forwards.
#pragma once

#include <string>
#include <vector>

#include "nn/tape.h"

namespace sysnoise::nn {

// ---- convolution & friends -------------------------------------------------

struct Conv2dSpec {
  int stride = 1;
  int pad = 0;
  int groups = 1;
};

// x: [N, C, H, W]; w: [OC, C/groups, K, K]; optional bias [OC].
Node* conv2d(Tape& t, Node* x, Param& w, Param* bias, const Conv2dSpec& spec,
             const std::string& layer_id);

// x: [..., in]; w: [out, in]; bias [out].
Node* linear(Tape& t, Node* x, Param& w, Param* bias, const std::string& layer_id);

// Max pooling; honours t.ctx.ceil_mode (the SysNoise knob).
Node* maxpool2d(Tape& t, Node* x, int kernel, int stride, int pad);

// Average pooling (always floor mode; not a paper noise source).
Node* avgpool2d(Tape& t, Node* x, int kernel, int stride, int pad);

Node* global_avgpool(Tape& t, Node* x);  // [N,C,H,W] -> [N,C]

// 2x spatial upsampling; interpolation from t.ctx.upsample (SysNoise knob).
Node* upsample2x(Tape& t, Node* x);

// Pooled output spatial size (exposed for tests; PyTorch semantics).
int pooled_size(int in, int kernel, int stride, int pad, bool ceil_mode);

// ---- normalization ----------------------------------------------------------

enum class BnMode {
  kTrain,  // batch stats, update running stats
  kEval,   // running stats
  kAdapt,  // batch stats, frozen running stats (test-time adaptation / TENT)
};

Node* batchnorm2d(Tape& t, Node* x, Param& gamma, Param& beta, Tensor& running_mean,
                  Tensor& running_var, BnMode mode, float momentum = 0.1f,
                  float eps = 1e-5f);

// LayerNorm over the last dimension; x: [..., D].
Node* layernorm(Tape& t, Node* x, Param& gamma, Param& beta, float eps = 1e-5f);

// ---- elementwise / shape ----------------------------------------------------

Node* relu(Tape& t, Node* x);
Node* gelu(Tape& t, Node* x);
Node* sigmoid(Tape& t, Node* x);
Node* add(Tape& t, Node* a, Node* b);
Node* scale(Tape& t, Node* x, float s);
Node* reshape(Tape& t, Node* x, std::vector<int> shape);
Node* flatten2d(Tape& t, Node* x);  // [N, ...] -> [N, rest]
// Concatenate along channel axis; inputs [N,C?,H,W] with equal N,H,W.
Node* concat_channels(Tape& t, Node* a, Node* b);

// ---- attention / embedding --------------------------------------------------

// Scaled dot-product attention core (projections are separate linear ops).
// q,k,v: [B, T, D]; heads must divide D. Optional causal mask.
Node* attention_core(Tape& t, Node* q, Node* k, Node* v, int heads, bool causal);

// ids: flat [B*T] token ids; table: [V, D]; returns [B, T, D]. Throws
// std::invalid_argument for an id outside [0, V).
Node* embedding(Tape& t, const std::vector<int>& ids, int batch, int seq, Param& table);

// ---- losses (each returns a scalar [1] node) --------------------------------

Node* softmax_cross_entropy(Tape& t, Node* logits, const std::vector<int>& labels);
// Masked variant for dense prediction: rows with mask==0 contribute nothing;
// loss divided by `normalizer` (not the row count).
Node* softmax_cross_entropy_masked(Tape& t, Node* logits,
                                   const std::vector<int>& labels,
                                   const std::vector<float>& mask,
                                   float normalizer);
// Mean entropy of softmax predictions (TENT's adaptation objective).
Node* softmax_entropy(Tape& t, Node* logits);
Node* mse_loss(Tape& t, Node* pred, const Tensor& target);
// Per-element binary focal loss on logits; `targets` in {0,1}, `mask` 0/1
// selects contributing elements; normalized by `normalizer`.
Node* sigmoid_focal_loss(Tape& t, Node* logits, const Tensor& targets,
                         const Tensor& mask, float alpha, float gamma,
                         float normalizer);
// Smooth-L1 (Huber, beta=1) over masked elements / normalizer.
Node* smooth_l1_loss(Tape& t, Node* pred, const Tensor& target, const Tensor& mask,
                     float normalizer);

// Softmax probabilities of a logits tensor [N, C] (inference helper, no grad).
Tensor softmax_probs(const Tensor& logits);
// Row-wise log-softmax (inference helper, no grad).
Tensor log_softmax_rows(const Tensor& logits);

}  // namespace sysnoise::nn
