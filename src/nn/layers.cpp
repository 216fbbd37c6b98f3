#include "nn/layers.h"

#include <cmath>

namespace sysnoise::nn {

namespace {

template <typename T>
void append(std::vector<T>& out, const std::vector<T>& view) {
  out.insert(out.end(), view.begin(), view.end());
}

}  // namespace

void Module::collect(ParamRefs& out) {
  ModuleRefs refs;
  walk(refs);
  append(out, refs.params);
}

void Module::collect_state(StateRefs& out) {
  ModuleRefs refs;
  walk(refs);
  append(out, refs.state);
}

void Module::collect_bn_affine(ParamRefs& out) {
  ModuleRefs refs;
  walk(refs);
  append(out, refs.norm_affine);
}

Tensor kaiming_normal(std::vector<int> shape, int fan_in, Rng& rng) {
  Tensor t(std::move(shape));
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  for (float& v : t.vec()) v = rng.normal_f(0.0f, stddev);
  return t;
}

Tensor xavier_uniform(std::vector<int> shape, int fan_in, int fan_out, Rng& rng) {
  Tensor t(std::move(shape));
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  for (float& v : t.vec()) v = rng.uniform_f(-bound, bound);
  return t;
}

Conv2d::Conv2d(int in_ch, int out_ch, int kernel, int stride, int pad, Rng& rng,
               std::string layer_id, int groups, bool bias)
    : has_bias(bias), id(std::move(layer_id)) {
  const int icg = in_ch / groups;
  w = Param(kaiming_normal({out_ch, icg, kernel, kernel}, icg * kernel * kernel, rng));
  if (has_bias) b = Param(Tensor({out_ch}));
  spec.stride = stride;
  spec.pad = pad;
  spec.groups = groups;
}

void Conv2d::walk(ModuleRefs& refs) {
  refs.add(w);
  if (has_bias) refs.add(b);
}

Linear::Linear(int in_f, int out_f, Rng& rng, std::string layer_id, bool bias)
    : has_bias(bias), id(std::move(layer_id)) {
  w = Param(xavier_uniform({out_f, in_f}, in_f, out_f, rng));
  if (has_bias) b = Param(Tensor({out_f}));
}

void Linear::walk(ModuleRefs& refs) {
  refs.add(w);
  if (has_bias) refs.add(b);
}

BatchNorm2d::BatchNorm2d(int channels)
    : gamma(Tensor::full({channels}, 1.0f)),
      beta(Tensor({channels})),
      running_mean(Tensor({channels})),
      running_var(Tensor::full({channels}, 1.0f)) {}

void BatchNorm2d::walk(ModuleRefs& refs) {
  refs.add(gamma, beta);
  refs.norm_affine.insert(refs.norm_affine.end(), {&gamma, &beta});
  refs.state.insert(refs.state.end(), {&running_mean, &running_var});
}

LayerNorm::LayerNorm(int dim)
    : gamma(Tensor::full({dim}, 1.0f)), beta(Tensor({dim})) {}

void LayerNorm::walk(ModuleRefs& refs) {
  refs.add(gamma, beta);
  refs.norm_affine.insert(refs.norm_affine.end(), {&gamma, &beta});
}

Embedding::Embedding(int vocab, int dim, Rng& rng) {
  Tensor t({vocab, dim});
  for (float& v : t.vec()) v = rng.normal_f(0.0f, 0.02f);
  table = Param(std::move(t));
}

MultiHeadAttention::MultiHeadAttention(int dim, int num_heads, bool causal_mask,
                                       Rng& rng, const std::string& layer_id)
    : wq(dim, dim, rng, layer_id + ".q"),
      wk(dim, dim, rng, layer_id + ".k"),
      wv(dim, dim, rng, layer_id + ".v"),
      wo(dim, dim, rng, layer_id + ".o"),
      heads(num_heads),
      causal(causal_mask) {}

Node* MultiHeadAttention::operator()(Tape& t, Node* x) {
  Node* q = wq(t, x);
  Node* k = wk(t, x);
  Node* v = wv(t, x);
  Node* attn = attention_core(t, q, k, v, heads, causal);
  return wo(t, attn);
}

TransformerBlock::TransformerBlock(int dim, int heads, int mlp_ratio, bool causal,
                                   Rng& rng, const std::string& id)
    : ln1(dim), ln2(dim),
      attn(dim, heads, causal, rng, id + ".attn"),
      mlp1(dim, mlp_ratio * dim, rng, id + ".mlp1"),
      mlp2(mlp_ratio * dim, dim, rng, id + ".mlp2") {}

Node* TransformerBlock::operator()(Tape& t, Node* x) {
  x = add(t, x, attn(t, ln1(t, x)));
  return add(t, x, mlp2(t, gelu(t, mlp1(t, ln2(t, x)))));
}

}  // namespace sysnoise::nn
